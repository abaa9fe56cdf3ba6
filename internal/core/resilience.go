package core

import (
	"sort"
	"time"
)

// Resilience configures the path-level resilience layer: per-target
// circuit breakers, health-scored source selection, and hedged range
// requests. The zero value disables the layer entirely — paths fall
// back to the fixed-rotation failover of earlier revisions and the
// session's wire behavior is bit-for-bit unchanged.
//
// The layer is deterministic by construction: breaker state is
// evaluated only at selection time (never from timer callbacks), and
// all jitter comes from a dedicated splitmix64 stream separate from the
// path's backoff stream.
type Resilience struct {
	// BreakerThreshold is the consecutive-failure count that opens a
	// target's circuit breaker. Zero disables the whole layer.
	BreakerThreshold int
	// BreakerCooldown is the base open duration before a half-open
	// probe is admitted. It doubles on the first re-open (capped at 2×:
	// probes are tiny 1 KiB ranges, so re-probing a flapping target is
	// cheap, while a long cooldown delays discovering that a replica
	// healed) and gains sub-seeded jitter of up to half the base, so a
	// correlated fault does not march every session's probe back at
	// one instant. Defaults to 800ms.
	BreakerCooldown time.Duration
	// HedgeEnabled turns on hedged range requests: when an in-flight
	// fetch exceeds its size-normalized latency budget — HedgeMultiplier
	// × the service time this request size would take at the path's
	// slow-but-healthy throughput — the laggard is cancelled at exactly
	// that instant (via the conn abort protocol) and the range is
	// reissued against the best-scored live source. Normalizing by size
	// matters because chunk fetch latency is dominated by chunk size: a
	// single latency quantile would either hedge every large chunk or
	// never fire at all.
	HedgeEnabled bool
	// HedgeQuantile is the fraction of healthy requests the budget must
	// cover: 0.9 builds the budget from the 10th-percentile observed
	// service rate, so only the slowest decile of healthy fetches risks
	// a false hedge even before the multiplier. Defaults to 0.9.
	HedgeQuantile float64
	// HedgeMultiplier scales the predicted slow-case service time into
	// the hedge budget. Defaults to 2.
	HedgeMultiplier float64
	// HedgeMinSamples is the number of completed requests required
	// before hedging arms. Defaults to 8.
	HedgeMinSamples int
}

func (r Resilience) withDefaults() Resilience {
	if r.BreakerCooldown <= 0 {
		r.BreakerCooldown = 800 * time.Millisecond
	}
	if r.HedgeQuantile <= 0 || r.HedgeQuantile > 1 {
		r.HedgeQuantile = 0.9
	}
	if r.HedgeMultiplier <= 0 {
		r.HedgeMultiplier = 2
	}
	if r.HedgeMinSamples <= 0 {
		r.HedgeMinSamples = 8
	}
	return r
}

// svcWindow is the per-path service digest behind the hedge budget: a
// sliding window of the last 64 successful requests recording each
// one's latency and byte count, with exact quantiles (sort of a
// 64-element copy), so the budget is a pure deterministic function of
// the completed-request history.
type svcWindow struct {
	sec   [64]float64 // request latency, seconds
	bytes [64]int64   // request size
	next  int
	n     int
}

func (w *svcWindow) add(elapsed time.Duration, size int64) {
	w.sec[w.next] = elapsed.Seconds()
	w.bytes[w.next] = size
	w.next = (w.next + 1) % len(w.sec)
	if w.n < len(w.sec) {
		w.n++
	}
}

// rateQuantile returns the q-th quantile of the observed per-request
// service rates (bytes/second), with the fixed per-request overhead
// floor subtracted from each latency first so small requests — whose
// elapsed time is dominated by that overhead — do not read as slow
// transfer rates. Low q picks a slow-but-healthy rate.
func (w *svcWindow) rateQuantile(q, floor float64) float64 {
	if w.n == 0 {
		return 0
	}
	tmp := make([]float64, 0, w.n)
	for i := 0; i < w.n; i++ {
		if w.sec[i] > 0 && w.bytes[i] > 0 {
			sec := w.sec[i] - floor
			if sec < 1e-3 {
				sec = 1e-3
			}
			tmp = append(tmp, float64(w.bytes[i])/sec)
		}
	}
	if len(tmp) == 0 {
		return 0
	}
	sort.Float64s(tmp)
	idx := int(q*float64(len(tmp))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	return tmp[idx]
}

// minSec returns the smallest observed request latency in the window —
// a cheap proxy for the fixed per-request overhead (RTT, dial, headers)
// that does not scale with size.
func (w *svcWindow) minSec() float64 {
	m := 0.0
	for i := 0; i < w.n; i++ {
		if m == 0 || w.sec[i] < m {
			m = w.sec[i]
		}
	}
	return m
}

// srcHealth is the breaker + health score of one target address.
type srcHealth struct {
	fails      int       // consecutive failures since last success
	openUntil  time.Time // breaker open until this instant
	openStreak int       // consecutive opens without a redeeming success
	ewmaLat    float64   // EWMA of successful request latency, seconds
	ewmaFail   float64   // EWMA of the failure indicator (0/1)
	samples    int       // successful requests observed
}

// sourceSet tracks per-target health for one path. All methods run on
// the path's single driving context (its event-loop steps), so no
// locking is needed and the state evolution — and every jittered
// cooldown — is deterministic per seed. State is keyed by address, so
// it survives re-bootstraps that rebuild the server list.
type sourceSet struct {
	cfg  Resilience
	rng  uint64 // private splitmix64 stream for breaker-cooldown jitter
	tgts map[string]*srcHealth
	svc  svcWindow
	// hedgeStreak counts consecutive hedges with no intervening
	// success. Each one inflates the next hedge budget by 1.5× (up to
	// the deadline clamp): after a regime shift — a replica kill that
	// doubles the load on the survivor — the window's rate prediction
	// is stale-tight, every fetch would hedge, and no fetch would ever
	// complete to feed a corrective sample. The inflation backs the
	// budget off until fetches complete again and the window re-learns.
	hedgeStreak int
}

// newSourceSet returns nil when the layer is disabled. The rng stream
// is derived from the session seed and path id with an extra offset so
// it never aliases the path's backoff stream.
func newSourceSet(cfg Resilience, seed int64, id int) *sourceSet {
	if cfg.BreakerThreshold <= 0 {
		return nil
	}
	return &sourceSet{
		cfg:  cfg.withDefaults(),
		rng:  uint64(seed)*0x9E3779B97F4A7C15 + uint64(id)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB,
		tgts: make(map[string]*srcHealth),
	}
}

func (s *sourceSet) tgt(addr string) *srcHealth {
	t := s.tgts[addr]
	if t == nil {
		t = &srcHealth{}
		s.tgts[addr] = t
	}
	return t
}

// observeSuccess closes the target's breaker, decays its failure score
// and feeds the hedge digest with the request's latency and size.
func (s *sourceSet) observeSuccess(addr string, elapsed time.Duration, size int64) {
	t := s.tgt(addr)
	t.fails = 0
	t.openStreak = 0
	t.openUntil = time.Time{}
	sec := elapsed.Seconds()
	if t.samples == 0 {
		t.ewmaLat = sec
	} else {
		t.ewmaLat = 0.7*t.ewmaLat + 0.3*sec
	}
	t.ewmaFail *= 0.7
	t.samples++
	s.svc.add(elapsed, size)
	s.hedgeStreak = 0
}

// observeHedge records a hedge cancel against addr: a breaker strike
// exactly like a hard failure, plus a bump of the path's hedge streak
// so the next budget backs off toward the deadline clamp.
func (s *sourceSet) observeHedge(addr string, now time.Time) (opened bool) {
	s.hedgeStreak++
	return s.observeFailure(addr, now)
}

// probeBytes is the range size of a half-open breaker probe: big
// enough to prove the target serves bytes, small enough that probing a
// still-dead target wastes only the probe itself.
const probeBytes = 1 << 10

// admit closes addr's breaker after a successful half-open probe and
// decays its failure score, without feeding the service window — probe
// latencies say nothing about chunk service rates.
func (s *sourceSet) admit(addr string) {
	t := s.tgt(addr)
	t.fails = 0
	t.openStreak = 0
	t.openUntil = time.Time{}
	t.ewmaFail *= 0.7
}

// observeFailure records a strike against addr at instant now and
// reports whether it opened (or re-opened) the breaker. A half-open
// target — one past its cooldown that has not yet redeemed itself —
// re-opens on a single strike with an escalated (doubled once, then
// flat) cooldown, so a flapping target is not re-admitted every cycle
// yet a healed one is rediscovered within ~2 cooldowns.
func (s *sourceSet) observeFailure(addr string, now time.Time) (opened bool) {
	t := s.tgt(addr)
	t.fails++
	t.ewmaFail = 0.7*t.ewmaFail + 0.3
	if t.openStreak == 0 && t.fails < s.cfg.BreakerThreshold {
		return false
	}
	t.openStreak++
	base := s.cfg.BreakerCooldown << uint(min(t.openStreak-1, 1))
	cd := base + time.Duration(splitmixDraw(&s.rng, int64(base)/2))
	t.openUntil = now.Add(cd)
	t.fails = 0
	return true
}

// pick returns the best live target index at instant now: breaker-open
// targets are skipped outright (fail-fast — no wire time is burned on
// a known-dead replica), the rest are ranked by a deterministic health
// score (latency EWMA inflated by the failure EWMA; never-sampled
// targets rank first), ties broken by slice index. probe reports that
// the winner is a half-open breaker being re-admitted. When every
// target is open, ok is false and wait is the earliest half-open
// instant.
func (s *sourceSet) pick(servers []string, now time.Time) (idx int, probe bool, wait time.Time, ok bool) {
	best := -1
	bestScore := 0.0
	for i, addr := range servers {
		t := s.tgts[addr]
		if t != nil && now.Before(t.openUntil) {
			if wait.IsZero() || t.openUntil.Before(wait) {
				wait = t.openUntil
			}
			continue
		}
		score := 0.0
		if t != nil {
			if t.samples > 0 {
				score = t.ewmaLat * (1 + 8*t.ewmaFail)
			} else {
				// Never-sampled targets rank on a synthetic 10 s latency
				// scale so a fresh target with a failure history can never
				// outrank a sampled healthy one; a fresh target with no
				// history scores zero and is explored first.
				score = 10 * t.ewmaFail
			}
		}
		if best == -1 || score < bestScore {
			best, bestScore = i, score
			probe = t != nil && t.openStreak > 0
		}
	}
	if best == -1 {
		return 0, false, wait, false
	}
	return best, probe, time.Time{}, true
}

// hedgeBudget returns the in-flight latency budget past which a fetch
// of size bytes should be hedged, or 0 when hedging is disarmed (off,
// under-sampled, or the path has fewer than two sources — with no
// alternative to reissue on, cancelling the sole in-flight fetch only
// restarts it from zero against the same laggard, losing whatever
// progress the transfer had made). The budget is size-normalized: the
// time this request would take at the window's slow-but-healthy
// service rate, plus the fixed per-request overhead floor, scaled by
// the multiplier. Against a request deadline the budget is clamped
// just below it — past that instant the deadline would kill the fetch
// anyway, so cancelling the laggard and reissuing it as a hedge
// strictly beats letting it die as a hard timeout and walking the
// failure ladder.
func (s *sourceSet) hedgeBudget(size int64, reqTimeout time.Duration, nsrc int) time.Duration {
	if !s.cfg.HedgeEnabled || size <= 0 || nsrc < 2 || s.svc.n < s.cfg.HedgeMinSamples {
		return 0
	}
	floor := s.svc.minSec()
	rate := s.svc.rateQuantile(1-s.cfg.HedgeQuantile, floor)
	if rate <= 0 {
		return 0
	}
	pred := float64(size)/rate + floor
	b := time.Duration(s.cfg.HedgeMultiplier * pred * float64(time.Second))
	for i := 0; i < s.hedgeStreak && i < 4; i++ {
		b = b * 3 / 2
	}
	if b <= 0 {
		return 0
	}
	if reqTimeout > 0 {
		if max := hedgeClamp(reqTimeout); b > max {
			b = max
		}
		if b <= 0 {
			return 0
		}
	}
	return b
}

// hedgeClamp is the ceiling a hedge budget may reach against a request
// deadline: just under it, so the hedge timer fires strictly ahead of
// the deadline timer instead of racing it at the same instant. The
// margin is deliberately small — a fetch cancelled inside it would
// almost certainly have died at the deadline anyway, so shrinking the
// margin shrinks the band of healthy near-deadline fetches a clamped
// budget can falsely cancel.
func hedgeClamp(reqTimeout time.Duration) time.Duration {
	m := reqTimeout / 64
	if m < time.Millisecond {
		m = time.Millisecond
	}
	return reqTimeout - m
}

// probeBudget returns the hedge budget for a half-open probe. A probe
// exists to measure reality, so it ignores the (possibly stale) rate
// prediction that opened the breaker and runs nearly to the request
// deadline — hedging only at the instant where the deadline would kill
// the fetch anyway. A healthy target therefore always gets room to
// redeem itself and feed a corrective sample into the service window,
// while a still-dead one strikes out as a hedge instead of a hard
// timeout. Returns 0 (unhedged) when hedging is off or deadline-less.
func (s *sourceSet) probeBudget(reqTimeout time.Duration) time.Duration {
	if !s.cfg.HedgeEnabled || reqTimeout <= 0 {
		return 0
	}
	return hedgeClamp(reqTimeout)
}
