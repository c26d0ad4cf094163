package scenario

import (
	"math"

	"repro/internal/energy"
	"repro/internal/units"
)

// Meter is the power monitor's state for one run: the bytes each
// interface moved in each direction, what the last flush saw, and whether
// the LTE radio was ever activated. Run and the lockstep lanes share it,
// so both meter a run with the same arithmetic.
type Meter struct {
	// LTETouched records an LTE radio activation.
	LTETouched bool

	delivered [energy.NumInterfaces]units.ByteSize // bytes moved down
	uplinked  [energy.NumInterfaces]units.ByteSize // bytes moved up
	last      [energy.NumInterfaces]units.ByteSize
	lastUp    [energy.NumInterfaces]units.ByteSize
}

// Count records n bytes moved over iface, up when uplink is set.
func (m *Meter) Count(iface energy.Interface, n units.ByteSize, uplink bool) {
	if uplink {
		m.uplinked[iface] += n
	} else {
		m.delivered[iface] += n
	}
}

// Flush advances acct to now with the throughput observed since the last
// flush and returns that throughput. wifiRate is the WiFi link's current
// capacity, fed to dev's weak-signal model when it has one. Flush reports
// false, changing nothing, when no time has passed since the accountant's
// clock.
func (m *Meter) Flush(acct *energy.Accountant, dev *energy.DeviceProfile, now float64, wifiRate units.BitRate) (energy.Throughputs, bool) {
	var thr energy.Throughputs
	dt := now - acct.Now()
	if dt <= 0 {
		return thr, false
	}
	for i := 0; i < energy.NumInterfaces; i++ {
		deltaDown := m.delivered[i] - m.last[i]
		m.last[i] = m.delivered[i]
		deltaUp := m.uplinked[i] - m.lastUp[i]
		m.lastUp[i] = m.uplinked[i]
		if deltaDown <= 0 && deltaUp <= 0 {
			continue
		}
		if deltaDown > 0 {
			thr.Down[i] = units.BitRate(deltaDown.Bits() / dt)
		}
		if deltaUp > 0 {
			thr.Up[i] = units.BitRate(deltaUp.Bits() / dt)
		}
		// Data observed on a radio that demoted to idle (e.g. WiFi after
		// a long HTTP idle gap) wakes it; promotion skew is bounded by
		// one meter interval.
		if acct.Radio(energy.Interface(i)).State() == energy.Idle {
			acct.Radio(energy.Interface(i)).Activate(acct.Now())
		}
	}
	// Optional weak-signal model: feed the WiFi link's current quality
	// (capacity over nominal) to the radio before integrating.
	if nom := dev.Radios[energy.WiFi].WeakSignalNominal; nom > 0 {
		acct.Radio(energy.WiFi).SetQuality(float64(wifiRate) / float64(nom))
	}
	acct.Advance(now, thr)
	return thr, true
}

// Result builds the metered fields of a run's Result from the flushed
// accountant: completion (NaN complete means the run did not finish),
// energies, bytes moved, per-byte energy and battery share. A completed
// run first drains the accountant — a power monitor keeps recording
// through the cellular tail, so the fixed cost after the last byte
// belongs to the transfer.
func (m *Meter) Result(acct *energy.Accountant, dev *energy.DeviceProfile, proto Protocol, complete, elapsed float64) Result {
	completed := !math.IsNaN(complete)
	if completed {
		acct.Drain()
	}
	res := Result{
		Protocol:       proto,
		Completed:      completed,
		CompletionTime: complete,
		Elapsed:        elapsed,
		Energy:         acct.Total(),
		BaseEnergy:     acct.BaseEnergy(),
		LTEUsed:        m.LTETouched || acct.InterfaceEnergy(energy.LTE) > 0,
	}
	for i := 0; i < energy.NumInterfaces; i++ {
		res.ByIface[i] = acct.InterfaceEnergy(energy.Interface(i))
		res.Downloaded += m.delivered[i]
		res.Uploaded += m.uplinked[i]
	}
	if moved := res.Downloaded + res.Uploaded; moved > 0 {
		res.JPerByte = res.Energy.PerByte(moved)
	} else {
		res.JPerByte = math.Inf(1)
	}
	res.BatteryPct = dev.BatteryFraction(res.Energy) * 100
	return res
}
