package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/edge"
	"repro/internal/netem"
	"repro/internal/netem/trace"
)

// edgeNetworks are the access networks an edge tier fronts, matching
// the testbed's two client links.
var edgeNetworks = []string{"wifi", "lte"}

// deployEdgeTier builds the scenario's edge caches against tb's origin
// cluster, edge i filling from the network's replica i mod replicas.
// bhShapes carries per-edge backhaul rate transforms (1-based edge
// index) compiled from the scenario's backhaul-degrade faults.
func deployEdgeTier(tb *msplayer.Testbed, spec *EdgeTierSpec,
	bhShapes map[int]func(trace.Rate) trace.Rate) ([]*edge.Cache, error) {
	cluster := tb.Cluster()
	edges := make([]*edge.Cache, 0, len(spec.Edges))
	for ei, es := range spec.Edges {
		var nets []edge.Network
		for _, nw := range edgeNetworks {
			ups := cluster.VideoServerAddrs(nw)
			if len(ups) == 0 {
				return edges, fmt.Errorf("fleet: no origin replicas in network %q", nw)
			}
			nets = append(nets, edge.Network{Name: nw, Upstream: ups[ei%len(ups)]})
		}
		e, err := edge.Deploy(tb.Network(), edge.Config{
			Name:       fmt.Sprintf("edge%d", ei+1),
			Networks:   nets,
			ByteBudget: es.ByteBudget,
			PageSize:   es.PageSize,
			Policy:     es.Policy,
			Stampede:   es.Stampede,
			Catalog:    cluster.Catalog(),
			Secret:     cluster.Secret(),
			TokenTTL:   cluster.TokenTTL(),
			Handshake:  tb.Profile().Handshake,
			Backhaul: edge.Backhaul{RateMbps: spec.BackhaulMbps, Delay: spec.BackhaulDelay,
				Shape: bhShapes[ei+1]},
		})
		if err != nil {
			return edges, err
		}
		edges = append(edges, e)
	}
	return edges, nil
}

// faultPlan is the armed form of a scenario's fault plan: one window
// record per fault, recovery marks written by the timer callbacks that
// execute the recoveries. Callbacks fire on the clock's driver
// at exact virtual instants, so the records are deterministic per seed;
// the mutex is only the cross-goroutine memory fence for the final
// snapshot.
type faultPlan struct {
	mu      sync.Mutex
	windows []FaultWindow
}

func (fp *faultPlan) recovered(i int) {
	fp.mu.Lock()
	fp.windows[i].Recovered = true
	fp.mu.Unlock()
}

func (fp *faultPlan) snapshot() []FaultWindow {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	return append([]FaultWindow(nil), fp.windows...)
}

// armFaults schedules the scenario's fault plan on the emulation clock:
// one timer per onset and one per recovery, armed in fault order before
// any session exists, so same-instant faults fire in plan order. The
// callbacks run under a clock hold and never park (Kill, Restart,
// Blackhole, Outage and edge Restart are all park-free by contract).
// Backhaul-degrade faults are already compiled into the backhaul links
// at deploy time; armFaults only records their windows.
func armFaults(tb *msplayer.Testbed, sc *Scenario, edges []*edge.Cache, start time.Time) (*faultPlan, error) {
	fp := &faultPlan{windows: make([]FaultWindow, len(sc.Faults))}
	clock := tb.Clock()
	cluster := tb.Cluster()
	for fi, f := range sc.Faults {
		fi, f := fi, f
		w := &fp.windows[fi]
		w.Kind = f.Kind
		w.Start = f.At
		if f.Duration > 0 {
			w.End = f.At + f.Duration
		}
		switch f.Kind {
		case FaultOriginKill, FaultOriginBlackhole:
			addrs := cluster.VideoServerAddrs(f.Network)
			if f.Replica > len(addrs) {
				return nil, fmt.Errorf("fleet: fault %d targets replica %d of %d in network %q",
					fi, f.Replica, len(addrs), f.Network)
			}
			addr := addrs[f.Replica-1]
			w.Target = addr
			if f.Kind == FaultOriginKill {
				clock.NewTimer(func() { _ = cluster.Kill(addr) }).Schedule(start.Add(f.At))
				if f.Duration > 0 {
					clock.NewTimer(func() {
						// Recovery is goal-state-based: the window counts as
						// recovered when the replica is alive afterwards, even
						// if an overlapping fault's restart already revived it
						// (chaos plans overlap same-target windows freely).
						if cluster.Restart(addr) == nil || cluster.Alive(addr) {
							fp.recovered(fi)
						}
					}).Schedule(start.Add(f.At + f.Duration))
				}
			} else {
				clock.NewTimer(func() { _ = cluster.Blackhole(addr, true) }).Schedule(start.Add(f.At))
				clock.NewTimer(func() {
					// A dead replica is not wedged: if an overlapping kill
					// took the server down, its eventual restart comes back
					// clean, so the blackhole window has recovered.
					if cluster.Blackhole(addr, false) == nil || !cluster.Alive(addr) {
						fp.recovered(fi)
					}
				}).Schedule(start.Add(f.At + f.Duration))
			}
		case FaultEdgeOutage:
			e := edges[f.Edge-1]
			w.Target = e.Name()
			clock.NewTimer(func() { e.Outage() }).Schedule(start.Add(f.At))
			clock.NewTimer(func() {
				if e.Restart() == nil {
					fp.recovered(fi)
				}
			}).Schedule(start.Add(f.At + f.Duration))
		case FaultBackhaulDegrade:
			w.Target = fmt.Sprintf("edge%d-backhaul", f.Edge)
			w.Recovered = true // compiled into the link's rate profile
		case FaultPartition:
			addrs := cluster.VideoServerAddrs(f.Network)
			if f.Replica > len(addrs) {
				return nil, fmt.Errorf("fleet: fault %d targets replica %d of %d in network %q",
					fi, f.Replica, len(addrs), f.Network)
			}
			addr := addrs[f.Replica-1]
			w.Target = addr
			nw := tb.Network()
			group := f.Network
			clock.NewTimer(func() { nw.SetPartitioned(group, addr, true) }).Schedule(start.Add(f.At))
			clock.NewTimer(func() {
				nw.SetPartitioned(group, addr, false)
				fp.recovered(fi)
			}).Schedule(start.Add(f.At + f.Duration))
		case FaultFlap:
			addrs := cluster.VideoServerAddrs(f.Network)
			if f.Replica > len(addrs) {
				return nil, fmt.Errorf("fleet: fault %d targets replica %d of %d in network %q",
					fi, f.Replica, len(addrs), f.Network)
			}
			addr := addrs[f.Replica-1]
			w.Target = addr
			nw := tb.Network()
			group := f.Network
			// Down the first half of each period, up the second; the
			// final heal lands exactly at the window's end even when the
			// last cycle is clipped.
			for off := time.Duration(0); off < f.Duration; off += f.Period {
				clock.NewTimer(func() { nw.SetPartitioned(group, addr, true) }).Schedule(start.Add(f.At + off))
				if up := off + f.Period/2; up < f.Duration {
					clock.NewTimer(func() { nw.SetPartitioned(group, addr, false) }).Schedule(start.Add(f.At + up))
				}
			}
			clock.NewTimer(func() {
				nw.SetPartitioned(group, addr, false)
				fp.recovered(fi)
			}).Schedule(start.Add(f.At + f.Duration))
		case FaultLossStorm:
			w.Target = f.Network + "-access"
			w.Recovered = true // compiled into the access links' loss windows
		}
	}
	return fp, nil
}

// edgeServers is the per-network video-server override steering one
// cohort's sessions at its edge.
func edgeServers(e *edge.Cache) map[string][]string {
	m := make(map[string][]string, len(edgeNetworks))
	for _, nw := range edgeNetworks {
		m[nw] = []string{e.Addr(nw)}
	}
	return m
}

// SessionResult is the outcome of one session in a fleet run.
type SessionResult struct {
	// Cohort and Index identify the session within the scenario.
	Cohort string
	Index  int
	// Arrival is the session's start offset from scenario start.
	Arrival time.Duration
	// Metrics is the session's QoE result (nil on spawn error).
	Metrics *msplayer.Metrics
	// Err is the session error, if any.
	Err error
}

// Run executes a scenario: one shared testbed (origin cluster + virtual
// clock), one client and session per cohort member, all concurrent as
// state machines on one event loop, and returns the aggregated report.
// Deterministic per scenario seed: every session step runs at a virtual
// instant the clock chose, and every random draw derives from
// Scenario.Seed, so two runs produce byte-identical reports. A run
// always goes to completion in virtual time; ctx is not observed. The
// finished report is checked against CheckInvariants: on a violation
// Run returns the report together with the error.
func Run(_ context.Context, sc Scenario) (*Report, error) {
	// A chaos plan expands into concrete faults first, so validation,
	// arming, horizon-riding and the report's fault table all see the
	// same deterministic plan.
	sc.expandChaos()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	var profile msplayer.Profile
	if sc.Profile != nil {
		profile = *sc.Profile
		profile.Seed = sc.Seed
	} else {
		profile = msplayer.TestbedProfile(sc.Seed)
	}
	tb, err := msplayer.NewTestbed(profile)
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	clock := tb.Clock()
	// The scenario epoch: Now() cannot move before the driver drains the
	// clock below. Captured this early because the fault plan's backhaul
	// windows are compiled into the edge links at deploy time.
	start := clock.Now()

	// The edge tier deploys before any session exists, so listener and
	// backhaul creation order is a pure function of the scenario. Edges
	// close before the testbed (LIFO), mirroring deploy order in reverse.
	var edges []*edge.Cache
	if sc.EdgeTier != nil {
		var bhShapes map[int]func(trace.Rate) trace.Rate
		for _, f := range sc.Faults {
			if f.Kind != FaultBackhaulDegrade {
				continue
			}
			if bhShapes == nil {
				bhShapes = make(map[int]func(trace.Rate) trace.Rate)
			}
			bhShapes[f.Edge] = composeShape(bhShapes[f.Edge],
				scaleWindow(start.Add(f.At), f.Duration, f.Factor))
		}
		edges, err = deployEdgeTier(tb, sc.EdgeTier, bhShapes)
		for _, e := range edges {
			defer e.Close()
		}
		if err != nil {
			return nil, err
		}
	}

	// Loss-storm faults compile into the access links of every client
	// attached during the run: one window list per network name, applied
	// at session attach (the windows are anchored at the scenario epoch,
	// so every client sees the same storm instants).
	var lossWins map[string][]netem.LossWindow
	for _, f := range sc.Faults {
		if f.Kind != FaultLossStorm {
			continue
		}
		if lossWins == nil {
			lossWins = make(map[string][]netem.LossWindow)
		}
		lossWins[f.Network] = append(lossWins[f.Network],
			netem.LossWindow{From: start.Add(f.At), To: start.Add(f.At + f.Duration), Prob: f.Factor})
	}

	// The fault plan arms before any session exists: timers created here
	// get the lowest sequence numbers, so a fault onset sharing an
	// instant with session activity executes first, deterministically.
	faults, err := armFaults(tb, &sc, edges, start)
	if err != nil {
		return nil, err
	}

	results := make([][]SessionResult, len(sc.Cohorts))
	ev := newEventedRun()
	for ci := range sc.Cohorts {
		co := &sc.Cohorts[ci]
		var servers map[string][]string
		if len(edges) > 0 {
			ei := co.Edge - 1
			if co.Edge == 0 {
				ei = ci % len(edges)
			}
			servers = edgeServers(edges[ei])
		}
		results[ci] = make([]SessionResult, co.Sessions)
		arrivalRng := rand.New(rand.NewSource(mix(sc.Seed, int64(ci), -1)))
		arrivals, err := co.Arrival.times(co.Sessions, arrivalRng)
		if err != nil {
			return nil, err
		}
		for i := 0; i < co.Sessions; i++ {
			sessSeed := mix(sc.Seed, int64(ci), int64(i))
			slot := &results[ci][i]
			slot.Cohort = co.Name
			slot.Index = i
			slot.Arrival = arrivals[i]
			// Arrival timers arm in cohort/session order after the fault
			// timers, so same-instant ties resolve in that order.
			ev.arm(tb, &profile, co, servers, lossWins, i, arrivals[i], sessSeed, start, slot)
		}
	}
	// Virtual time stays at the scenario epoch until every arrival timer
	// is armed: only the driver moves it.
	driver := clock.Register()
	defer driver.Unregister()
	ev.wait(driver)

	// Ride out the fault horizon: recovery timers scheduled past the last
	// session's completion (a restart nobody was waiting for) must fire
	// before the books are sampled, or the window records — and the Loads
	// rows a restart appends — would depend on wall-clock racing.
	if len(sc.Faults) > 0 {
		driver.SleepUntil(start.Add(sc.faultHorizon()).Add(time.Millisecond))
	}

	// Every session has torn down its transports through the clock-visible
	// conn abort protocol, so the origin's connection machines finish at
	// deterministic virtual instants. Join that drain barrier on the
	// clock, then sample the per-server books exactly once: after a
	// settled drain they are final and exact — no wall-clock quiescence
	// polling, no racy in-flight remainders.
	// Edges drain first — their client-facing conns unwind, releasing any
	// backhaul fills still in flight — then the origin behind them. After
	// both barriers settle, edge and origin books alike are final.
	settled := true
	for _, e := range edges {
		if !e.Drain(driver) {
			settled = false
		}
	}
	if !tb.Drain(driver) {
		settled = false
	}
	loads := tb.Cluster().Loads()
	edgeStats := make([]edge.Stats, 0, len(edges))
	for _, e := range edges {
		edgeStats = append(edgeStats, e.Stats())
	}

	rep := buildReport(sc, results, loads)
	rep.Edges = edgeStats
	rep.Faults = faults.snapshot()
	rep.epoch = start
	rep.LoadsSettled = settled
	return rep, CheckInvariants(rep)
}

// overlayLossWindows appends the scenario's loss-storm windows for lp's
// network onto the profile. The append clips capacity first, so the
// shared profile's own window slice is never mutated in place.
func overlayLossWindows(lp *msplayer.LinkProfile, wins map[string][]netem.LossWindow) {
	extra := wins[lp.Name]
	if len(extra) == 0 {
		return
	}
	lp.LossWindows = append(lp.LossWindows[:len(lp.LossWindows):len(lp.LossWindows)], extra...)
}

// eventedRun drives a scenario's sessions as event-loop state machines:
// one shared netem.Loop for every session's machines, one arrival timer
// per session, and a completion count the driver awaits. The whole
// run needs one goroutine regardless of the session count, and it
// references a session's player graph only while the session runs:
// live holds the handles of the sessions in flight, so what a run keeps
// of a finished session is its SessionResult.
type eventedRun struct {
	loop *netem.Loop

	mu        sync.Mutex
	remaining int
	live      []*flight // unordered; wait sorts by seq
	spawned   int
	slots     []*SessionResult
}

// flight is one session's entry in eventedRun.live: its handle, its
// spawn order and its index in live (-1 while not in live: before the
// spawn, after a failed one and once finished).
type flight struct {
	es  *msplayer.EventedSession
	seq int
	pos int
}

func newEventedRun() *eventedRun {
	return &eventedRun{loop: netem.NewLoop()}
}

// land removes f from live by swapping the last entry into its place.
// Callers hold ev.mu.
func (ev *eventedRun) land(f *flight) {
	if f.pos < 0 {
		return
	}
	last := len(ev.live) - 1
	ev.live[f.pos] = ev.live[last]
	ev.live[f.pos].pos = f.pos
	ev.live[last] = nil
	ev.live = ev.live[:last]
	f.es, f.pos = nil, -1
}

// errClockStopped fills the slots of sessions whose arrival timer never
// fired because the emulation clock stopped first.
var errClockStopped = fmt.Errorf("fleet: emulation clock stopped mid-scenario")

// arm schedules one session's arrival: at the arrival instant the
// timer callback — a loop step — attaches a client with per-session
// links (degrade events compiled in), arms down events, builds the
// scheduler and starts the session machines.
func (ev *eventedRun) arm(tb *msplayer.Testbed, profile *msplayer.Profile, co *Cohort,
	servers map[string][]string, lossWins map[string][]netem.LossWindow,
	idx int, arrival time.Duration, sessSeed int64, start time.Time, slot *SessionResult) {
	ev.remaining++
	ev.slots = append(ev.slots, slot)
	clock := tb.Clock()
	f := &flight{pos: -1}
	finish := func(m *msplayer.Metrics, err error) {
		slot.Metrics, slot.Err = m, err
		ev.mu.Lock()
		ev.land(f)
		ev.remaining--
		ev.mu.Unlock()
	}
	spawn := func() {
		// The session RNG decides event participation; its draws happen
		// in a fixed order, so participation is a pure function of the
		// seed. Created at the first draw: most cohorts never read it.
		var rng *rand.Rand
		wifiProf := profile.WiFi
		if co.WiFi != nil {
			wifiProf = *co.WiFi
		}
		lteProf := profile.LTE
		if co.LTE != nil {
			lteProf = *co.LTE
		}
		overlayLossWindows(&wifiProf, lossWins)
		overlayLossWindows(&lteProf, lossWins)
		var downs []Event
		for _, ev := range co.Events {
			affected := ev.Fraction == 0 || ev.Fraction >= 1
			if !affected {
				if rng == nil {
					rng = rand.New(trace.NewSource(sessSeed))
				}
				affected = rng.Float64() < ev.Fraction
			}
			if !affected {
				continue
			}
			onset := start.Add(ev.At + time.Duration(idx)*ev.Stagger)
			switch ev.Kind {
			case EventWiFiDegrade:
				wifiProf.Shape = composeShape(wifiProf.Shape, scaleWindow(onset, ev.Duration, ev.Factor))
			case EventLTEDegrade:
				lteProf.Shape = composeShape(lteProf.Shape, scaleWindow(onset, ev.Duration, ev.Factor))
			case EventWiFiDown, EventLTEDown:
				ev := ev
				downs = append(downs, ev)
			}
		}
		client := tb.NewClient(wifiProf, lteProf, sessSeed)
		for _, dev := range downs {
			iface := client.WiFi()
			if dev.Kind == EventLTEDown {
				iface = client.LTE()
			}
			onset := start.Add(dev.At + time.Duration(idx)*dev.Stagger)
			end := onset.Add(dev.Duration)
			if !clock.Now().Before(end) {
				continue // window already over when the session arrived
			}
			clock.NewTimer(func() { iface.SetAlive(false) }).Schedule(onset)
			clock.NewTimer(func() { iface.SetAlive(true) }).Schedule(end)
		}
		sched, err := co.Scheduler.build()
		if err != nil {
			finish(nil, err)
			return
		}
		es, err := client.StreamEvented(ev.loop, msplayer.SessionConfig{
			Scheduler:          sched,
			Paths:              co.Paths,
			Buffer:             co.Buffer,
			Video:              co.Video,
			Itag:               co.Itag,
			VideoServers:       servers,
			StopAfterPreBuffer: co.StopAfterPreBuffer,
			StopAfterRefills:   co.StopAfterRefills,
			RequestTimeout:     co.RequestTimeout,
			Resilience:         co.Resilience,
			Seed:               sessSeed,
		}, finish)
		if err != nil {
			finish(nil, err)
			return
		}
		// finish cannot have run yet: the session's first step is queued
		// behind this one on the loop.
		ev.mu.Lock()
		f.es, f.seq, f.pos = es, ev.spawned, len(ev.live)
		ev.spawned++
		ev.live = append(ev.live, f)
		ev.mu.Unlock()
	}
	clock.NewTimer(func() { ev.loop.Do(spawn) }).Schedule(start.Add(arrival))
}

// wait drives the clock until every armed session has completed. If
// the clock stops (or runs out of events) first, it interrupts the
// surviving sessions (collecting their partial, sealed metrics) and
// marks never-arrived slots with errClockStopped.
func (ev *eventedRun) wait(driver *netem.Participant) {
	if driver.Await(func() bool {
		ev.mu.Lock()
		defer ev.mu.Unlock()
		return ev.remaining == 0
	}) {
		return
	}
	ev.mu.Lock()
	// Interrupt the survivors in spawn order. Interrupt is idempotent,
	// and a session that completes meanwhile ignores it.
	live := slices.Clone(ev.live)
	slices.SortFunc(live, func(a, b *flight) int { return a.seq - b.seq })
	handles := make([]*msplayer.EventedSession, len(live))
	for i, f := range live {
		handles[i] = f.es
	}
	ev.mu.Unlock()
	for _, es := range handles {
		es.Interrupt()
	}
	// Sessions whose arrival timer never fired have no handle; their
	// slots are still empty (a finished session always has Metrics or a
	// non-nil Err).
	for _, slot := range ev.slots {
		if slot.Metrics == nil && slot.Err == nil {
			slot.Err = errClockStopped
		}
	}
}
func scaleWindow(onset time.Time, d time.Duration, factor float64) func(trace.Rate) trace.Rate {
	end := onset.Add(d)
	return func(base trace.Rate) trace.Rate {
		return trace.RateFunc(func(t time.Time) float64 {
			r := base.RateAt(t)
			if !t.Before(onset) && t.Before(end) {
				return r * factor
			}
			return r
		})
	}
}

// composeShape chains shape transforms (inner first).
func composeShape(inner, outer func(trace.Rate) trace.Rate) func(trace.Rate) trace.Rate {
	if inner == nil {
		return outer
	}
	return func(base trace.Rate) trace.Rate { return outer(inner(base)) }
}
