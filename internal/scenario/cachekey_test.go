package scenario

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/runcache"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// keyInput is everything CacheKey reads.
type keyInput struct {
	Sc    Scenario
	Proto Protocol
	Opt   Opts
}

func (in keyInput) key(t *testing.T) runcache.Key {
	t.Helper()
	k, ok := CacheKey(in.Sc, in.Proto, in.Opt)
	if !ok {
		t.Fatalf("%s: not keyable", in.Sc.Name)
	}
	return k
}

// allWorkloads has one value of every workload type CacheKey encodes.
func allWorkloads() []workload.Workload {
	return []workload.Workload{
		workload.FileDownload{Size: 16 * units.MB},
		workload.FileUpload{Size: units.MB},
		workload.Bulk{},
		workload.DefaultWebPage(),
		workload.DefaultStreaming(),
	}
}

// keyInputs returns every library constructor and every workload type,
// with the optional fields set so a walk reaches everything under them.
func keyInputs() []keyInput {
	dev := energy.GalaxyS3
	dl := workload.FileDownload{Size: 4 * units.MB}
	scs := []Scenario{
		RandomBandwidth(dev(), dl),
		BackgroundTraffic(dev(), 3, 0.5, 0.25, dl),
		Mobility(dev()),
		MobilityMultiAP(dev()),
		Wild(energy.Nexus5(), Good, Bad, AMS, dl),
		WebBrowsing(dev()),
	}
	for _, w := range allWorkloads() {
		scs = append(scs, StaticLab(dev(), 12, 4.5, w))
	}
	var ins []keyInput
	for i, sc := range scs {
		cfg := core.DefaultConfig()
		cfg.MinRate = units.MbpsRate(1)
		sc.CoreConfig = &cfg
		sc.AppPower = 0.25 * units.Watt
		ins = append(ins, keyInput{Sc: sc, Proto: EMPTCP, Opt: Opts{Seed: int64(i) + 1, Trace: true, TraceStep: 0.5}})
	}
	return ins
}

var recorderType = reflect.TypeFor[trace.Recorder]()

// walkKeyInputs visits every field reachable from v, an addressable
// value, in declaration order: leaves (numbers, bools, strings), every
// pointer (before its pointee), and func fields. Unexported fields are
// made settable, pointees are copied into fresh allocations so changes
// never reach shared values, and an interface's dynamic value is walked
// as a settable copy — after changing a leaf under one, call sync to
// store the copy back. A nil Recorder is visited as a leaf; its methods
// are not walked.
func walkKeyInputs(v reflect.Value, path string, sync func(), visit func(path string, leaf reflect.Value, sync func())) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !v.Type().Field(i).IsExported() {
				f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
			}
			walkKeyInputs(f, path+"."+v.Type().Field(i).Name, sync, visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkKeyInputs(v.Index(i), fmt.Sprintf("%s[%d]", path, i), sync, visit)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			cp := reflect.New(v.Type().Elem())
			cp.Elem().Set(v.Elem())
			v.Set(cp)
			sync()
		}
		visit(path, v, sync)
		if !v.IsNil() {
			walkKeyInputs(v.Elem(), path, sync, visit)
		}
	case reflect.Interface:
		if v.IsNil() || v.Type() == recorderType {
			visit(path, v, sync)
			return
		}
		cp := reflect.New(v.Elem().Type()).Elem()
		cp.Set(v.Elem())
		inner := func() { v.Set(cp); sync() }
		walkKeyInputs(cp, fmt.Sprintf("%s.(%v)", path, cp.Type()), inner, visit)
	default:
		visit(path, v, sync)
	}
}

// unkeyedFuncs are the func fields linkSig stands in for.
var unkeyedFuncs = []string{".Sc.WiFi", ".Sc.LTE"}

// leafDump renders every keyed field of in: path, dynamic types and
// exact bits. TraceStep is rendered after CacheKey's default, so two
// inputs a run cannot tell apart dump equal.
func leafDump(in keyInput) []string {
	if in.Opt.TraceStep <= 0 {
		in.Opt.TraceStep = 1
	}
	var out []string
	walkKeyInputs(reflect.ValueOf(&in).Elem(), "", func() {}, func(path string, leaf reflect.Value, _ func()) {
		var s string
		switch leaf.Kind() {
		case reflect.Float32, reflect.Float64:
			s = fmt.Sprintf("%#x", math.Float64bits(leaf.Float()))
		case reflect.Func:
			return
		case reflect.Pointer, reflect.Interface:
			s = fmt.Sprint(leaf.IsNil())
		default:
			s = fmt.Sprintf("%q", fmt.Sprint(leaf.Interface()))
		}
		out = append(out, path+"="+s)
	})
	return out
}

// bump changes leaf by the smallest step of its kind — one ulp up, one
// unit up, a flipped bool, a longer string, nil for a pointer — and
// returns the undo, or nil for a leaf CacheKey does not encode.
func bump(leaf reflect.Value) (undo func()) {
	old := reflect.New(leaf.Type()).Elem()
	old.Set(leaf)
	switch leaf.Kind() {
	case reflect.Float64:
		leaf.SetFloat(math.Nextafter(leaf.Float(), math.Inf(1)))
	case reflect.Int, reflect.Int64:
		leaf.SetInt(leaf.Int() + 1)
	case reflect.Uint8, reflect.Uint64:
		leaf.SetUint(leaf.Uint() + 1)
	case reflect.Bool:
		leaf.SetBool(!leaf.Bool())
	case reflect.String:
		leaf.SetString(leaf.String() + "x")
	case reflect.Pointer:
		leaf.Set(reflect.Zero(leaf.Type()))
	default:
		return nil
	}
	return func() { leaf.Set(old) }
}

// TestCacheKeyCoversEveryField walks every field reachable from the key
// inputs of every library constructor and workload type, and requires
// that a one-ulp or one-unit change alters the key. A field added to
// Scenario, Opts, DeviceProfile, core.Config, a workload or linkSig
// without an encoding fails here.
func TestCacheKeyCoversEveryField(t *testing.T) {
	seen := map[string]bool{}
	for _, in := range keyInputs() {
		base := in.key(t)
		walkKeyInputs(reflect.ValueOf(&in).Elem(), "", func() {}, func(path string, leaf reflect.Value, sync func()) {
			seen[path] = true
			if leaf.Kind() == reflect.Func {
				if !slices.Contains(unkeyedFuncs, path) {
					t.Errorf("%s: func field with no stand-in in the key", path)
				}
				return
			}
			if leaf.Type() == recorderType {
				return // a non-nil Recorder makes the run unkeyable
			}
			undo := bump(leaf)
			if undo == nil {
				t.Errorf("%s: unhandled kind %v", path, leaf.Kind())
				return
			}
			sync()
			k, ok := CacheKey(in.Sc, in.Proto, in.Opt)
			undo()
			sync()
			if ok && k == base {
				t.Errorf("%s (%s): change does not alter the key", in.Sc.Name, path)
			}
		})
		if in.key(t) != base {
			t.Fatalf("%s: walk did not restore the input", in.Sc.Name)
		}
	}
	for _, p := range []string{".Sc.linkSig.args[3]", ".Sc.Device.Radios[1].FACHRate", ".Sc.CoreConfig.MinRate",
		".Sc.Work.(workload.Streaming).BufferAhead", ".Sc.Work.(workload.WebPage).ParetoAlpha", ".Opt.TraceStep"} {
		if !seen[p] {
			t.Errorf("walk never reached %s", p)
		}
	}
}

// TestCacheKeyWorkloadTypes gives each workload type its own key, even
// where the field values coincide.
func TestCacheKeyWorkloadTypes(t *testing.T) {
	works := append(allWorkloads(), workload.FileDownload{Size: units.MB}, workload.FileUpload{}, workload.FileDownload{})
	seen := map[runcache.Key]workload.Workload{}
	for _, w := range works {
		k := keyInput{Sc: StaticLab(energy.GalaxyS3(), 12, 4.5, w), Proto: MPTCP}.key(t)
		if prev, dup := seen[k]; dup {
			t.Errorf("%T%+v and %T%+v share a key", prev, prev, w, w)
		}
		seen[k] = w
	}
}

// TestCacheKeyExactSizesAndRates pins bug 1: the key used to print
// sizes to 0.1 MB and rates to 0.01 Mbps, so runs that differ in those
// digits shared a store entry.
func TestCacheKeyExactSizesAndRates(t *testing.T) {
	dev := energy.GalaxyS3()
	size := func(mb float64) workload.Workload {
		return workload.FileDownload{Size: units.ByteSize(mb * float64(units.MB))}
	}
	differ := func(what string, a, b Scenario) {
		t.Helper()
		ka := keyInput{Sc: a, Proto: EMPTCP, Opt: Opts{Seed: 7}}.key(t)
		kb := keyInput{Sc: b, Proto: EMPTCP, Opt: Opts{Seed: 7}}.key(t)
		if ka == kb {
			t.Errorf("%s: keys collide", what)
		}
	}
	differ("StaticLab 16.0 vs 16.04 MB", StaticLab(dev, 12, 4.5, size(16)), StaticLab(dev, 12, 4.5, size(16.04)))
	differ("Wild 16.0 vs 16.04 MB", Wild(dev, Good, Bad, WDC, size(16)), Wild(dev, Good, Bad, WDC, size(16.04)))
	differ("StaticLab LTE 4.5 vs 4.501 Mbps", StaticLab(dev, 12, 4.5, size(16)), StaticLab(dev, 12, 4.501, size(16)))

	defer func(r units.BitRate) { labLTERate = r }(labLTERate)
	labLTERate = units.MbpsRate(4.5)
	rb, mob := RandomBandwidth(dev, size(16)), Mobility(dev)
	labLTERate = units.MbpsRate(4.501)
	differ("RandomBandwidth LTE 4.5 vs 4.501 Mbps", rb, RandomBandwidth(dev, size(16)))
	differ("Mobility LTE 4.5 vs 4.501 Mbps", mob, Mobility(dev))
}

// TestCacheKeyEligibility covers the runs CacheKey refuses and the
// spellings it treats as one.
func TestCacheKeyEligibility(t *testing.T) {
	dev := energy.GalaxyS3()
	sc := StaticLab(dev, 12, 4.5, workload.FileDownload{Size: units.MB})
	custom := sc
	custom.linkSig = linkSig{}
	if _, ok := CacheKey(custom, MPTCP, Opts{}); ok {
		t.Error("custom scenario keyed")
	}
	if _, ok := CacheKey(sc, MPTCP, Opts{Recorder: &trace.Metrics{}}); ok {
		t.Error("recorded run keyed")
	}
	ptr := sc
	ptr.Work = &workload.FileDownload{Size: units.MB}
	if _, ok := CacheKey(ptr, MPTCP, Opts{}); ok {
		t.Error("pointer workload keyed")
	}
	def := keyInput{Sc: sc, Proto: MPTCP, Opt: Opts{TraceStep: 1}}.key(t)
	for _, step := range []float64{0, -1} {
		if k := (keyInput{Sc: sc, Proto: MPTCP, Opt: Opts{TraceStep: step}}).key(t); k != def {
			t.Errorf("TraceStep %v keys apart from the default 1", step)
		}
	}
}

// TestCacheKeyAllocs keeps the key off the heap.
func TestCacheKeyAllocs(t *testing.T) {
	in := keyInputs()[0]
	if n := testing.AllocsPerRun(100, func() { CacheKey(in.Sc, in.Proto, in.Opt) }); n != 0 {
		t.Errorf("CacheKey allocates %v times per call", n)
	}
}

// prefixKey keys in through the per-cell path: a KeyPrefix of its
// scenario and protocol, finished with its options.
func (in keyInput) prefixKey(h *KeyHasher) (runcache.Key, bool) {
	p, ok := NewKeyPrefix(in.Sc, in.Proto)
	if !ok {
		return runcache.Key{}, false
	}
	return p.Key(h, in.Opt)
}

// TestKeyPrefixMatchesLibrary checks the per-cell key path against
// CacheKey on every library constructor and workload type, at several
// seeds and trace options, and on the runs CacheKey refuses.
func TestKeyPrefixMatchesLibrary(t *testing.T) {
	var h KeyHasher
	for _, in := range keyInputs() {
		for _, opt := range []Opts{in.Opt, {}, {Seed: -1}, {Seed: 1 << 62, TraceStep: -1}, {Trace: true, TraceStep: 2}} {
			in.Opt = opt
			want := in.key(t)
			if got, ok := in.prefixKey(&h); !ok || got != want {
				t.Errorf("%s %+v: prefix key %x (ok=%v), CacheKey %x", in.Sc.Name, opt, got, ok, want)
			}
		}
	}
	sc := StaticLab(energy.GalaxyS3(), 12, 4.5, workload.FileDownload{Size: units.MB})
	custom, ptr := sc, sc
	custom.linkSig = linkSig{}
	ptr.Work = &workload.FileDownload{Size: units.MB}
	for _, in := range []keyInput{{Sc: custom}, {Sc: ptr}, {Sc: sc, Opt: Opts{Recorder: &trace.Metrics{}}}} {
		if _, ok := in.prefixKey(&h); ok {
			t.Errorf("%+v: prefix path keyed a run CacheKey refuses", in.Opt)
		}
	}
}

// TestKeyPrefixAllocs keeps finishing a key off the heap once the
// hasher holds its state.
func TestKeyPrefixAllocs(t *testing.T) {
	in := keyInputs()[0]
	p, ok := NewKeyPrefix(in.Sc, in.Proto)
	if !ok {
		t.Fatal("not keyable")
	}
	var h KeyHasher
	p.Key(&h, in.Opt)
	if n := testing.AllocsPerRun(100, func() { p.Key(&h, in.Opt) }); n != 0 {
		t.Errorf("KeyPrefix.Key allocates %v times per call", n)
	}
}

// fuzzKeyInput builds a library scenario from fuzz parameters.
func fuzzKeyInput(ctor, flags uint8, a, b float64, n int64, seed int64) keyInput {
	dev := energy.GalaxyS3()
	if flags&1 != 0 {
		dev = energy.Nexus5()
	}
	var w workload.Workload
	switch flags >> 5 % 5 {
	case 0:
		w = workload.FileDownload{Size: units.ByteSize(a)}
	case 1:
		w = workload.FileUpload{Size: units.ByteSize(b)}
	case 2:
		w = workload.Bulk{}
	case 3:
		p := workload.DefaultWebPage()
		p.Objects, p.ParetoAlpha = int(n), a
		w = p
	default:
		s := workload.DefaultStreaming()
		s.Chunks, s.ChunkInterval = int(n), b
		w = s
	}
	q := func(bit uint8) Quality { return Quality(flags >> bit & 1) }
	var sc Scenario
	switch ctor % 7 {
	case 0:
		sc = StaticLab(dev, a, b, w)
	case 1:
		sc = RandomBandwidth(dev, w)
	case 2:
		sc = BackgroundTraffic(dev, int(n), a, b, w)
	case 3:
		sc = Mobility(dev)
	case 4:
		sc = MobilityMultiAP(dev)
	case 5:
		sc = Wild(dev, q(1), q(2), ServerLoc(n%3+3)%3, w)
	default:
		sc = WebBrowsing(dev)
	}
	if flags&8 != 0 {
		cfg := core.DefaultConfig()
		cfg.Tau, cfg.MinRate = a, units.BitRate(b)
		sc.CoreConfig = &cfg
	}
	return keyInput{Sc: sc, Proto: Protocol(ctor >> 3 % 7), Opt: Opts{Seed: seed, Trace: flags&16 != 0, TraceStep: b}}
}

// FuzzRunKeyInjective checks CacheKey is a function of exactly the
// keyed fields: equal inputs give equal keys, an input that differs
// from another in one field — any field, set to any value — keys apart
// from it, and two independently built inputs share a key only when
// every keyed field matches bit for bit. The per-cell path (KeyPrefix)
// must give every input CacheKey's key.
func FuzzRunKeyInjective(f *testing.F) {
	f.Add(uint8(0), uint8(0), 16.0, 4.5, int64(3), int64(1), uint16(0), uint64(0), "")
	f.Add(uint8(12), uint8(255), 0.25, -0.0, int64(-1), int64(-7), uint16(40), math.Float64bits(16.04), "x")
	f.Add(uint8(5), uint8(6), math.NaN(), math.Inf(1), int64(1<<40), int64(1<<62), uint16(9), uint64(1), "Nexus 5")
	f.Add(uint8(2), uint8(0x88), 1e-300, 0.0, int64(0), int64(0), uint16(200), uint64(1)<<63, "\x00")
	f.Fuzz(func(t *testing.T, ctor, flags uint8, a, b float64, n, seed int64, sel uint16, newBits uint64, newStr string) {
		in := fuzzKeyInput(ctor, flags, a, b, n, seed)
		k, ok := CacheKey(in.Sc, in.Proto, in.Opt)
		if !ok {
			t.Fatal("library scenario not keyable")
		}
		if k2 := fuzzKeyInput(ctor, flags, a, b, n, seed).key(t); k2 != k {
			t.Fatal("equal inputs key apart")
		}
		var h KeyHasher
		if kp, ok := in.prefixKey(&h); !ok || kp != k {
			t.Fatalf("prefix key %x (ok=%v), CacheKey %x", kp, ok, k)
		}
		// One field set to a fuzzed value.
		var leaves []string
		walkKeyInputs(reflect.ValueOf(&in).Elem(), "", func() {}, func(path string, leaf reflect.Value, _ func()) {
			leaves = append(leaves, path)
		})
		target := leaves[int(sel)%len(leaves)]
		one := in
		walkKeyInputs(reflect.ValueOf(&one).Elem(), "", func() {}, func(path string, leaf reflect.Value, sync func()) {
			if path != target {
				return
			}
			switch leaf.Kind() {
			case reflect.Float64:
				leaf.SetFloat(math.Float64frombits(newBits))
			case reflect.Int, reflect.Int64:
				leaf.SetInt(int64(newBits))
			case reflect.Uint8, reflect.Uint64:
				leaf.SetUint(newBits)
			case reflect.Bool:
				leaf.SetBool(!leaf.Bool())
			case reflect.String:
				leaf.SetString(newStr)
			case reflect.Pointer:
				leaf.Set(reflect.Zero(leaf.Type()))
			}
			sync()
		})
		sameKey := func(x, y keyInput) {
			t.Helper()
			kx, _ := CacheKey(x.Sc, x.Proto, x.Opt)
			ky, oky := CacheKey(y.Sc, y.Proto, y.Opt)
			if kp, okp := y.prefixKey(&h); kp != ky || okp != oky {
				t.Fatalf("prefix key %x (ok=%v), CacheKey %x (ok=%v)", kp, okp, ky, oky)
			}
			dx, dy := leafDump(x), leafDump(y)
			if same := slices.Equal(dx, dy); (kx == ky) != same {
				t.Fatalf("keys equal = %v, keyed fields equal = %v\n%v\n%v", kx == ky, same, dx, dy)
			}
		}
		sameKey(in, one)

		// An independently built input.
		sameKey(in, fuzzKeyInput(ctor, flags^uint8(newBits), math.Float64frombits(newBits), b, n, seed))
	})
}
