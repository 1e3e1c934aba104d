package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
	"time"
)

func wanTestConfig(seed int64, sites, shards int) Config {
	cfg := ScaleConfig(seed, sites, 4, 2, shards)
	cfg.WanSync.Enabled = true
	cfg.WanSync.Drift.Enabled = true
	return cfg
}

// TestWanPathAsym pins the sign and magnitude of the two-way-exchange
// asymmetry error the coordinator's readings inherit from the chain.
func TestWanPathAsym(t *testing.T) {
	sys, err := NewSystem(wanTestConfig(1, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	link := sys.Link(sys.WanLinkName(0)) // site 0 <-> site 1, dir 0 = 0→1
	if link == nil {
		t.Fatalf("chain link %q not found", sys.WanLinkName(0))
	}
	link.SetWanDelay(0, 10*time.Microsecond) // 0→1 slower by 10µs

	// Observer 0, peer 1: the path from the peer back (1→0) is now the
	// fast one, so d(peer→obs) − d(obs→peer) = −10µs and the error −5µs.
	if got := sys.PathAsymNS(0, 1); got != -5_000 {
		t.Fatalf("PathAsymNS(0,1) = %v, want -5000", got)
	}
	if got := sys.PathAsymNS(1, 0); got != 5_000 {
		t.Fatalf("PathAsymNS(1,0) = %v, want 5000", got)
	}
	// Two-hop path 0↔2 includes the undisturbed second segment.
	if got := sys.PathAsymNS(0, 2); got != -5_000 {
		t.Fatalf("PathAsymNS(0,2) = %v, want -5000", got)
	}

	// Severing the first segment breaks 0↔1 and 0↔2 but not 1↔2.
	link.SetDown(true)
	if sys.PathUp(0, 1) || sys.PathUp(0, 2) {
		t.Fatal("PathUp true across a severed chain segment")
	}
	if !sys.PathUp(1, 2) {
		t.Fatal("PathUp(1,2) false with only segment 0-1 severed")
	}
}

// TestWanTierConverges boots a 3-site fabric with the WAN tier on and
// checks the site-level adjusted clocks pull onto a common timescale.
func TestWanTierConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-site convergence run")
	}
	sys, err := NewSystem(wanTestConfig(1, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	sys.Stop()

	samples := sys.Wan().Samples()
	if len(samples) < 50 {
		t.Fatalf("got %d WAN samples, want ≥ 50", len(samples))
	}
	last := samples[len(samples)-1]
	var lo, hi float64
	first := true
	for i, adj := range last.AdjNS {
		if !last.Alive[i] {
			t.Fatalf("site %d dead in a fault-free run", i)
		}
		if last.Holdover[i] || !last.Quorum[i] {
			t.Fatalf("site %d degraded (holdover=%v quorum=%v) in a fault-free run",
				i, last.Holdover[i], last.Quorum[i])
		}
		if math.IsNaN(adj) {
			t.Fatalf("site %d adjusted time is NaN", i)
		}
		if first {
			lo, hi, first = adj, adj, false
		}
		lo, hi = math.Min(lo, adj), math.Max(hi, adj)
	}
	// Site-level agreement: WAN noise is 2µs 1-sigma and the drift walk
	// adds up to ~5µs of asymmetry error, so tens of µs is the honest
	// scale; the raw (uncorrected) site clocks disagree by milliseconds.
	if hi-lo > 50_000 {
		t.Fatalf("WAN site spread after 30s = %.0fns, want ≤ 50µs", hi-lo)
	}
}

// TestShardEquivalenceWan extends the PDES contract to the WAN tier: the
// coordinator's full sample series (and the system fingerprint) must be
// bit-identical at every shard count, because its ticks run on the control
// scheduler at barrier instants.
func TestShardEquivalenceWan(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run equivalence suite")
	}
	const d = 12 * time.Second
	type wanFP struct {
		fp      runFingerprint
		samples any
	}
	run := func(shards int) wanFP {
		cfg := wanTestConfig(7, 3, shards)
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("NewSystem(shards=%d): %v", shards, err)
		}
		if err := sys.Start(); err != nil {
			t.Fatal(err)
		}
		if err := sys.RunFor(d); err != nil {
			t.Fatal(err)
		}
		out := wanFP{samples: sys.Wan().Samples(), fp: runFingerprint{samples: sys.Collector().Samples()}}
		out.fp.frames = framesTotal(sys)
		sys.Stop()
		return out
	}
	want := run(1)
	for _, shards := range []int{2, 3, 6} {
		got := run(shards)
		if !reflect.DeepEqual(want.samples, got.samples) {
			t.Errorf("shards=%d: WAN sample series diverges from single-scheduler run", shards)
		}
		if !reflect.DeepEqual(want.fp.samples, got.fp.samples) {
			t.Errorf("shards=%d: measurement samples diverge", shards)
		}
		if want.fp.frames != got.fp.frames {
			t.Errorf("shards=%d: frame counters diverge: %d vs %d", shards, want.fp.frames, got.fp.frames)
		}
	}
}

// goldenWanSamplesLargeDigest pins the coordinator's full sample series on
// a 24-site fabric. At site-level M = 24 the FTA runs its sort.Float64s
// (> 12) and stable-sort (> 20) paths, which the 4-site wansites golden
// digest never reaches.
const goldenWanSamplesLargeDigest = "8b3574203e59c77b62e104206741d07c112a04326b3369da896550326f1a7e72"

// TestGoldenDigestWanSamplesLarge digests Wan().Samples() on a 24-site
// fabric with delay drift on, driven through a severed chain segment, a
// failed intermediate gateway and the heal of both.
func TestGoldenDigestWanSamplesLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("24-site fabric run")
	}
	cfg := wanTestConfig(11, 24, 1)
	cfg.WanSync.F = 1
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	run := func(d time.Duration) {
		t.Helper()
		if err := sys.RunFor(d); err != nil {
			t.Fatal(err)
		}
	}
	run(6 * time.Second)
	cut := sys.Link(sys.WanLinkName(5))
	cut.SetDown(true)
	run(3 * time.Second)
	gw := sys.Bridge(sys.SiteBridgeNames(12)[0])
	gw.Fail()
	run(5 * time.Second)
	cut.SetDown(false)
	gw.Restore()
	run(8 * time.Second)

	samples := sys.Wan().Samples()
	var lostQuorum, heldOver bool
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, s := range samples {
		put(s.AtSec)
		for i, adj := range s.AdjNS {
			put(adj)
			flags := byte(0)
			for k, b := range []bool{s.Alive[i], s.Quorum[i], s.Holdover[i]} {
				if b {
					flags |= 1 << k
				}
			}
			h.Write([]byte{flags})
			lostQuorum = lostQuorum || (s.Alive[i] && !s.Quorum[i])
			heldOver = heldOver || s.Holdover[i]
		}
	}
	if !lostQuorum || !heldOver {
		t.Fatalf("scenario never degraded a site (quorum lost %v, holdover %v)", lostQuorum, heldOver)
	}
	last := samples[len(samples)-1]
	for i := range last.Quorum {
		if !last.Alive[i] || !last.Quorum[i] {
			t.Fatalf("site %d not back in quorum after the heal", i)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenWanSamplesLargeDigest {
		t.Fatalf("WAN samples digest changed over %d ticks: got %s want %s",
			len(samples), got, goldenWanSamplesLargeDigest)
	}
}
