package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// splitmix64 spreads test seeds over the whole int64 range.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// TestSourceMatchesMathRand is the differential fence for NewSource: the
// oracle is math/rand itself, never this repo. Every seed must yield the
// bit-identical NormFloat64 through both sources, on the closed-form
// path and on the materialised one.
func TestSourceMatchesMathRand(t *testing.T) {
	pow := func(k int) uint64 {
		p := uint64(1)
		for ; k > 0; k-- {
			p = p * 48271 % lcgMod
		}
		return p
	}
	for k, c := range map[int]uint64{
		1020: lcgPow1020, 1021: lcgPow1021, 1022: lcgPow1022,
		1839: lcgPow1839, 1840: lcgPow1840, 1841: lcgPow1841,
	} {
		if got := pow(k); got != c {
			t.Errorf("48271^%d mod (2^31-1) = %d, constant says %d", k, got, c)
		}
	}

	seeds := []int64{0, 1, -1, 1<<31 - 1, -(1<<31 - 1), 1 << 31, 89482311, math.MinInt64, math.MaxInt64}
	n := 200_000
	if testing.Short() {
		n = 20_000
	}
	x := uint64(23)
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(splitmix64(&x)))
	}
	oneDraw, materialised := 0, 0
	for _, seed := range seeds {
		src := NewSource(seed)
		got := rand.New(src).NormFloat64()
		want := rand.New(rand.NewSource(seed)).NormFloat64()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: NormFloat64 = %x, math/rand says %x", seed, math.Float64bits(got), math.Float64bits(want))
		}
		if src.(*source).full == nil {
			oneDraw++
		} else {
			materialised++
		}
	}
	// The ziggurat rejects its first candidate for ~2.8% of seeds.
	if oneDraw < len(seeds)*9/10 || materialised < len(seeds)/100 {
		t.Fatalf("paths exercised: %d one-draw, %d materialised of %d", oneDraw, materialised, len(seeds))
	}

	// Continuation: past the first value the stream is still math/rand's,
	// on every accessor.
	for _, seed := range seeds[:64] {
		a, b := NewSource(seed), rand.NewSource(seed).(rand.Source64)
		ra, rb := rand.New(NewSource(seed)), rand.New(rand.NewSource(seed))
		ua, ub := NewSource(seed), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 5; i++ {
			if g, w := a.Int63(), b.Int63(); g != w {
				t.Fatalf("seed %d: Int63 #%d = %d, math/rand says %d", seed, i, g, w)
			}
			if g, w := ra.Float64(), rb.Float64(); g != w {
				t.Fatalf("seed %d: Float64 #%d = %v, math/rand says %v", seed, i, g, w)
			}
			if g, w := ua.Uint64(), ub.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 #%d = %d, math/rand says %d", seed, i, g, w)
			}
		}
		a.Seed(seed + 1)
		if g, w := a.Int63(), rand.NewSource(seed+1).Int63(); g != w {
			t.Fatalf("seed %d: Int63 after Seed = %d, math/rand says %d", seed+1, g, w)
		}
	}
}

// lognormalPin holds mean-one Lognormal(σ=0.4, 200 ms) multipliers as
// float64 bits, recorded from the rand.NewSource-per-slot code this
// package had before NewSource. Unlike TestSourceMatchesMathRand it does
// not move with the toolchain's math/rand. Eight of the 64 (seed, slot)
// pairs take the materialised path.
var lognormalPin = []struct {
	seed, slot int64
	bits       uint64
}{
	{0, 0, 0x3fea64a05f2b29fa},
	{1, 1, 0x3fe22335964c5782},
	{-1, 7, 0x3fec2c8d02752ebe},
	{9223372036854775807, 3, 0x3ff26de6b4c9ca75},
	{-9223372036854775808, 5, 0x3ff57bce33b94d1f},
	{2147483647, 0, 0x3fea64a05f2b29fa},
	{42, -9, 0x3fdb3758a5811522},
	{11, 8500000000, 0x3ff2f0be1b2f1961},
	{-4192831650131979260, 3871778755, 0x3fe8b27b1e96160a},
	{-6859590515223675173, 12654598280, 0x3feac82cd45608f1},
	{-7820192879333865719, 15417690474, 0x3ff37beaada274ba},
	{-8183381485501132253, 15269459276, 0x3fe72fe6b7ba167b},
	{-3527120016999691590, 10225759994, 0x3feb2643ffda7900},
	{3783856538819732787, 6376586967, 0x3ff68dbe94ded5b5},
	{-10296333250633662, 4056102610, 0x3feb41d0fa75582b},
	{2297713625766023652, 10771551798, 0x3fed0bdc9074facd},
	{-2675677379382234158, 19747395665, 0x3fe8fb4ef9beff7e},
	{-1746842025448345565, 3696486482, 0x3fefb63f0f2d7161},
	{826190585084247982, 15897861294, 0x3ff22e400c3f5385},
	{-4158480255776171920, 15674440806, 0x3fde5ecbaeb79001},
	{1060076690188760549, 11324180822, 0x3fe7993215b4627a},
	{-563033656660101757, 8140288977, 0x3fd2304b564d003b},
	{-4689110774206864807, 3437454242, 0x3ff7e1c1dcb9bc47},
	{-3833725482074799643, 15236933562, 0x3ff3a248b617a083},
	{8083338748455012137, 8803308321, 0x3fe5d227b77a43fb},
	{3813250874326231153, 2365920294, 0x3ff87baa47f1551f},
	{3662641126248706881, 11525864397, 0x3fdd131277ca1c0a},
	{6756979296202966339, 14886813006, 0x3feabd4e6a8aa0e8},
	{5479745015061720383, 18540686389, 0x3ff074088937ab85},
	{-4477470532390149928, 15676791723, 0x3fe18ac255315892},
	{-2885854961162171070, 16375887304, 0x3ff74c85b5e4228f},
	{-8836443235509219721, 13477839765, 0x3fe6814d99cd24da},
	{-8839054161001220773, 14688337261, 0x3fe64b7bb51b7b5d},
	{-730688740254138864, 6916959428, 0x3ff8fefb257e711c},
	{-1765312107883792095, 11708712906, 0x3fddc24829f04ab7},
	{-5178574211529898654, 8062799044, 0x3ffa385833f3b460},
	{-3267745035367623908, 12544261717, 0x3fea360646d88045},
	{-8576663165360660200, 9331644308, 0x3feaf5510517dc05},
	{-5941403771615037882, 15179480990, 0x3fe2700bd7cfc047},
	{252868126947677078, 9882932165, 0x3fec8b005a38e0f4},
	{-4590407601291486164, 6494521277, 0x3fed54b1bdc662bf},
	{-5106986647268595185, 3983151178, 0x3fe906c90ca03095},
	{4519080599087680156, 17890924256, 0x3ff3df0087fe7bc5},
	{8013240451735865465, 921721931, 0x3ff43253d62b13d3},
	{8282987491002582528, 13056582107, 0x3fda2236573c59c8},
	{-3639452316117708091, 13312128834, 0x3fe390ad60d50094},
	{-9122074129297381032, 3401038301, 0x3fe5e5828b345aed},
	{-8261054893816920172, 14285034153, 0x3fee427f4ce8cdcc},
	{5472974313578921667, 8253763677, 0x3ffe4ed5f34be952},
	{-4780210668605123606, 2788403806, 0x3ff426db7131ba2b},
	{-1652233123050022731, 13051021454, 0x3ff0536644ae9e40},
	{4609871834436712324, 12273804453, 0x3fec5f7c83630149},
	{-4066066352594014316, 11616786905, 0x3fdcb0bbd17bf759},
	{-7658746769505591121, 6867709158, 0x3fe47eda754d37d3},
	{-4161525213144123738, 18461881958, 0x3fe3912c899161d7},
	{8078458233419812434, 185235917, 0x3fe4a0d3053a4cc9},
	{-924937233844782009, 12405176973, 0x3fe1b14a2a45e4fe},
	{-6723434859767487404, 2691206571, 0x3ffc1e1a4944a872},
	{6270377927820084802, 11610166255, 0x3ffac116e33328ac},
	{-3858657101688144165, 1506832569, 0x3fed7f73ac911417},
	{-102997728782460740, 2240288571, 0x3ff86f3e3a0b719c},
	{857388396693257871, 4686558954, 0x4008cab62079b0f0},
	{-2250135111407080911, 8330496356, 0x3ff8f38216d27109},
	{-9116441232749114785, 1057278022, 0x3fe632de2ac685f7},
}

func TestNoiseValuePin(t *testing.T) {
	const interval = 200 * time.Millisecond
	for _, p := range lognormalPin {
		r := Lognormal(Constant(1), 0.4, interval, p.seed)
		got := r.RateAt(time.Unix(0, p.slot*interval.Nanoseconds()))
		if math.Float64bits(got) != p.bits {
			t.Errorf("Lognormal seed %d slot %d = %#016x, pinned %#016x", p.seed, p.slot, math.Float64bits(got), p.bits)
		}
	}
}
