package eib

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/units"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := Generate(energy.GalaxyS3(), DefaultConfig())
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Device == nil || got.Device.Name != orig.Device.Name {
		t.Errorf("device not re-linked: %+v", got.Device)
	}
	if len(got.Entries) != len(orig.Entries) {
		t.Fatalf("entries = %d, want %d", len(got.Entries), len(orig.Entries))
	}
	for i := range got.Entries {
		if got.Entries[i] != orig.Entries[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, got.Entries[i], orig.Entries[i])
		}
	}
	// Decisions through the loaded table match the original.
	for _, w := range []float64{0.1, 0.4, 2, 8} {
		for _, l := range []float64{0.5, 2, 9} {
			a := orig.Decide(energy.Both, units.MbpsRate(w), units.MbpsRate(l))
			b := got.Decide(energy.Both, units.MbpsRate(w), units.MbpsRate(l))
			if a != b {
				t.Errorf("decision diverges at wifi=%v lte=%v: %v vs %v", w, l, a, b)
			}
		}
	}
}

func TestLoadUnknownDevice(t *testing.T) {
	orig := Generate(energy.GalaxyS3(), DefaultConfig())
	orig.Device = &energy.DeviceProfile{Name: "Prototype Handset"}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Device != nil {
		t.Error("unknown device should load with nil profile")
	}
	// String must not panic without a profile.
	if !strings.Contains(got.String(), "unknown device") {
		t.Error("nil-device rendering wrong")
	}
}

func TestSaveNilDevice(t *testing.T) {
	tb := Generate(energy.GalaxyS3(), DefaultConfig())
	tb.Device = nil
	var buf bytes.Buffer
	if err := tb.Save(&buf); err != nil {
		t.Fatalf("Save with nil device: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("{not json")); err == nil {
		t.Error("garbage input loaded")
	}
	if _, err := Load(strings.NewReader(`{"device":"x","entries":[]}`)); err == nil {
		t.Error("empty table loaded")
	}
	unsorted := `{"device":"x","entries":[
		{"LTE":2e6,"LTEOnlyBelow":1,"WiFiOnlyAtLeast":2},
		{"LTE":1e6,"LTEOnlyBelow":1,"WiFiOnlyAtLeast":2}]}`
	if _, err := Load(strings.NewReader(unsorted)); err == nil {
		t.Error("unsorted table loaded")
	}
}

// FuzzEIBLoad feeds Load arbitrary bytes: it must never panic, and every
// table it accepts must survive Save and a second Load unchanged.
func FuzzEIBLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := Generate(energy.GalaxyS3(), DefaultConfig()).Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"device":"Prototype","config":{"SafetyFactor":-1e308},"entries":[{"LTE":-0.5},{"LTE":1e-300}]}`))
	f.Add([]byte(`{"device":"x","entries":[{"LTE":2},{"LTE":1}]}`))
	f.Add([]byte(`{"entries":[{}]} trailing`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, in []byte) {
		tb, err := Load(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := tb.Save(&out); err != nil {
			t.Fatalf("accepted table does not save: %v", err)
		}
		back, err := Load(&out)
		if err != nil {
			t.Fatalf("saved table does not load: %v\n%s", err, out.Bytes())
		}
		if back.Config != tb.Config || !slices.Equal(back.Entries, tb.Entries) {
			t.Fatalf("round trip changed the table:\n%+v\n%+v", tb, back)
		}
		if (back.Device == nil) != (tb.Device == nil) || back.Device != nil && back.Device.Name != tb.Device.Name {
			t.Fatalf("round trip changed the device: %v vs %v", tb.Device, back.Device)
		}
	})
}
