// Package netem is a userspace network emulator used as the testbed
// substrate for MSPlayer experiments.
//
// It provides emulated connections (Conn) whose byte streams are
// subject to per-direction bandwidth pacing,
// propagation delay, jitter, random loss (modelled as head-of-line
// retransmission penalty), time-varying rate traces, and an optional
// TCP-like slow-start ramp. The emulation's HTTP client and server
// (package httpx) run on top of it, so the full range-request machinery
// of MSPlayer is exercised end to end.
//
// All emulated waiting goes through a Clock: a deterministic
// discrete-event queue that one driver drains. Connections, servers and
// session machines hold no goroutine: they run as callbacks on the
// clock (see "Timer-driven state machines"), and every wait — a
// propagation delay, a request deadline, an injected fault — is a
// Timer. The driver fires the timers in (deadline, seq) order on its
// own goroutine, so hours of emulated streaming complete as fast as the
// CPU allows and the event order is bit-for-bit reproducible across
// machines and load conditions. There are no wall-clock sleeps and no
// quiescence polling.
//
// # Driving the clock
//
// A clock has one driver at a time: the goroutine that holds the
// Participant Clock.Register returns (a test, an example's main, the
// fleet engine, Player.Run). Virtual time moves only inside the
// driver's two calls:
//
//   - Participant.SleepUntil(t) fires every event due at or before t,
//     then sets Now to t.
//   - Participant.Await(done) fires events until done() holds, then
//     finishes the current instant and returns true. It returns false
//     when the clock stops or the queue empties first: nothing is left
//     that could make done() hold. A false Await is final — callers turn
//     it into an error, never into a retry — so a run cannot hang: a
//     driver whose machines wedge returns as soon as the queue drains.
//
// Everything between those calls — scheduling timers, dialing, issuing
// loop steps — happens at a frozen instant. The rules:
//
//  1. Nothing parks. No time.Sleep, no channel wait, no wall-clock read:
//     a goroutine that waits in wall time stalls the driver, and one
//     that reads the wall clock leaks machine time into results.
//     Mechanically enforced by detlint/wallclock (see
//     internal/detlint): time.Now, time.Sleep, time.After and friends
//     are findings outside //detlint:allow-justified sites.
//  2. The emulation runs on one goroutine, the driver. A go statement
//     would run model code beside it, racing the events it fires.
//     Mechanically enforced by detlint/baredgo: a bare go statement in
//     a non-test file is a finding. Independent emulations, each with
//     its own clock, may run side by side.
//  3. One driver per clock: Register panics while a driver is live.
//     Code that waits on behalf of the driver takes its Participant
//     (httpx.Server.Drain, Testbed.Drain) instead of registering again.
//  4. Callbacks never drive the clock: a timer or readiness callback
//     that called SleepUntil or Await would run events from inside an
//     event.
//
// # Shutdown and draining
//
// Teardown is part of the deterministic model, not an afterthought: a
// connection abort is a scheduled clock event, never a racy side
// effect. Conn.AbortAt(t, err) (and Conn.Abort, its t=now shorthand)
// schedules a hard failure of both directions at the emulated instant
// t, and from there every endpoint behaviour is a pure function of
// virtual time:
//
//   - Reads and writes fail with err exactly from t onward.
//   - Segments that arrived at or before t stay deliverable — a reader
//     drains them first, even if it is only scheduled after t — then
//     sees err (the delivered-before-abort rule).
//   - Segments that would arrive strictly after t are dropped in
//     flight: the sender's pre-t writes are accepted (it cannot tell
//     yet), but the bytes never reach the peer (the dropped-at-abort
//     rule). Strict inequality keeps same-instant races commutative: a
//     segment arriving exactly at t is delivered whether or not its
//     reader beat the abort to it.
//   - The earliest scheduled abort wins; later re-schedules are no-ops,
//     so redundant abort sources (a teardown sweep, a per-request
//     cancellation watcher, interface loss) commute.
//
// Who initiates: an initiator (a fleet session's teardown, a fault
// timer) runs at one instant T while the clock stands still, so every
// abort in its sweep lands at T; every machine reading or writing a cut
// connection learns of it through its armed readiness callbacks and
// observes err by the rules above, at instants the clock alone decides.
// Events due at the same instant run one at a time in (deadline, seq)
// order, and the abort protocol makes their order commute.
//
// The retired goroutine session engine shows why same-instant order must
// be a function of virtual time. The waiter-accounted clock it ran on
// pinned virtual time while any participant was runnable, but it did not
// order two participants runnable at the same instant — the Go
// scheduler did, in wall time. The goroutine engine ran each MSPlayer
// path as its own participant, and both paths of a session shared the chunk manager:
// whenever both were runnable at one instant — Broadcast awake together
// by a gate flip or a delivery, or failed together by one replica kill
// — whichever goroutine reached the chunk mutex first took the
// contested span. Span assignment does not commute (the paths want
// different sizes, and near the buffering goal only one of them gets a
// span at all), so which path fetched what — and from there re-buffer
// counts, goodput and elapsed time — followed scheduler order: stable
// at GOMAXPROCS=1, where the run queue is itself deterministic, and
// different run to run on two cores. At the last commit that had the
// engine, `go test ./internal/fleet/` on 2 cores was red 5 runs in 5
// (cross-engine parity 5, goroutine-engine same-seed chaos double runs
// 4, goroutine-engine fault goldens 4, teardown churn 1). The layers
// both engines shared were not at fault: the same suite with every
// session on event-loop machines — then still against goroutine-served
// throttled origins and edge handlers parking on Cond — was
// byte-identical at GOMAXPROCS 1, 2 and 4 and under -race. The rule
// that follows: state that two same-instant actors both mutate must be
// driven from one ordered context. A session's machines are steps of
// one Loop, parked paths are re-polled in the order they parked, and
// every readiness or timer callback that feeds them fires in (deadline,
// seq) order, so same-instant order is a function of virtual time too.
// The servers have since followed: every connection is a machine, and
// an edge's single-flight waiters resume in the order they parked.
//
// Clock.Stop ends an emulation from a callback (Testbed.Close from an
// At event) or after the driver returned: pending events are dropped,
// the driver returns after the event that stopped it, and Now stays at
// the stop instant, so post-stop accessors read one stable time.
//
// Consumers build drain barriers on these semantics: httpx.Server
// counts its connection machines and Server.Drain awaits their count
// reaching zero, origin.Cluster.Drain chains that across every server,
// and the fleet engine joins that barrier on the clock after its
// sessions finish, then samples the per-origin books exactly once —
// final, settled, and bit-identical per seed, with no wall-clock
// quiescence polling anywhere.
//
// # Connection lifetime
//
// A connection is two Conns over two directions, and three parties
// reference it: the dialing Interface holds the client endpoint, so
// interface loss can abort it; the Listener holds the server endpoint,
// so a kill (Listener.Close) or a partition onset can abort it; and the
// machines driving each endpoint hold their own. Every holder lets go
// at a close, not at the end of the run. The Interface forgets the
// client endpoint when it closes. The Listener forgets the pair when
// its second endpoint closes: each Close aborts its read side at the
// close instant, so after both closes each direction carries an abort
// at or before now, and under the earliest-wins rule any later abort a
// sweep would schedule on the pair is a no-op. Forgetting it therefore
// changes no byte and no instant. A pair with only one side closed
// stays held — a server that has written its response and closed while
// the client is still reading is exactly the case where a kill must
// still drop the in-flight segments. Memory held by an emulated network
// is thus proportional to the connections open on it, not to every
// connection a long run ever accepted.
//
// # Timer queue
//
// Pending events live in one timer queue: a binary min-heap of Timers
// ordered by (deadline, seq). seq is the scheduling order, so
// same-instant deadlines fire in the order they were scheduled.
//
//   - A Timer is its own queue node: the steady state allocates
//     nothing.
//   - Every timer records its heap index, so Timer.Stop and a
//     re-Schedule remove the pending node in place, wherever it sits,
//     and the next schedule reuses it.
//   - The driver pops one event at a time, moves Now to its deadline
//     and runs its callback; the timer is off the queue first, so the
//     callback may reschedule it.
//   - A differential test drives randomized schedules, cancels and
//     reschedules through the queue and a container/heap reference and
//     asserts identical firing sequences.
//
// The queue needs no lock: one goroutine owns it. Almost every instant
// carries one event, so neither shards nor batches would have anything
// to work on.
//
// # Timer-driven fault callbacks
//
// Timers are the substrate for deterministic fault injection (request
// deadlines in httpx, the fleet fault-plan engine's server kills,
// blackholes and edge outages): arming a Timer at an exact virtual
// instant makes the fault — and its recovery — part of the event
// schedule, so two runs of the same plan fail identically. Callbacks
// run under tight rules:
//
//  1. A callback executes on the driver at the popped instant.
//     Same-instant timers fire in (deadline, seq) order, so arming
//     order decides firing order at a shared instant.
//  2. Callbacks must not drive the clock — no SleepUntil, no Await —
//     and must not block. Abort a conn, flip a server's blackhole flag,
//     schedule another timer, enqueue a Loop step: fine. Follow-up work
//     (an edge cold-restart re-deploying a server) is done synchronously
//     only if the API is documented park-free (origin.Cluster.Restart
//     is).
//  3. Callbacks may take emulation locks: nothing else runs while they
//     do, and no lock is held across an event.
//  4. No goroutines from callbacks: the spawned work would run beside
//     the driver at an instant the Go scheduler picks
//     (detlint/baredgo enforces it).
//  5. Resilience state (core's circuit breakers, health scores, hedge
//     service windows) is never read or written from a timer callback.
//     The hedge timer's callback only aborts the in-flight conn at the
//     budget instant — mechanism, not policy; the resulting error is
//     observed by the path's driving context (its event-loop step),
//     which alone advances breaker/hedge state at selection and
//     completion instants. Callbacks mutating that state would make the
//     outcome depend on which events share an instant with the timer.
//
// # Timer-driven state machines
//
// A Conn has one I/O API, the completion API: Conn.OnReadable,
// Conn.ReadBuf and Conn.Release to receive, Conn.TryWrite/
// TryWriteStable and Conn.OnWritable to send, Interface.DialEvent to
// connect and Listener.OnAcceptable to accept, with Loop to serialise
// a machine's steps. No read, write, dial or accept parks a goroutine:
// a whole session's I/O runs as a state machine stepped by timer
// callbacks, and so does every server connection, so a fleet runs on
// its driver's goroutine alone instead of O(sessions × paths) — and a
// server holds none at all. The rules extend the fault-callback rules
// above:
//
//  1. Readiness callbacks fire on the clock's driver (or synchronously
//     on a mutating caller) and must not park or drive the clock.
//     Drain, re-arm, schedule, hand the rest to a Loop step: fine.
//  2. Callbacks are level triggers, not edge counts: a firing may be
//     spurious and one firing may cover many arrivals. Consumers drain
//     until ReadBuf returns (nil, nil) (or TryWrite stops accepting)
//     and rely on the next firing for the rest.
//  3. ReadBuf hands out a borrowed view of the oldest arrived,
//     unconsumed bytes — zero-copy: the view aliases the direction's
//     pooled segment buffer. The borrow lifetime is explicit: a view
//     stays valid until the caller has Released that many bytes, and
//     releases are strictly FIFO per direction. Flow control is
//     charged at borrow time — ReadBuf decrements the sender's
//     send-buffer accounting at the instant it hands out the bytes, so
//     a consumer that sits on unreleased views delays only its own
//     memory reclamation, never the wire timeline. Escaping a
//     view past its Release (storing it, appending to it, capturing it
//     in a spawned closure) is a buffer-ownership bug;
//     detlint/borrowck flags retention mechanically.
//  4. Machines that span several connections serialise their steps
//     through a Loop: steps run one at a time in FIFO order, and a
//     step enqueued from within a step (a connection callback calling
//     straight back into the machine) is deferred until the running
//     step returns, so machines need no reentrant locking. Loop.Do
//     never parks.
//  5. Waiting is always a Timer, never a poll: a machine that needs a
//     deadline (request timeout, scheduler backoff) arms a Timer whose
//     callback enqueues the next step. Between callbacks a machine
//     occupies no goroutine and the clock sees only its timers.
//
// core.RunEvented and httpx.Server are the consumers: every MSPlayer
// session (bootstrap, multi-path fetch loops, failover backoff, playout
// gate) is one such machine, and so is every server connection —
// origin, throttled origin and edge alike, accepted by the listener's
// callback, with an edge's backhaul fills on httpx.EventTransport. The
// Fig. 1 handshake probe in internal/bench is a machine too.
//
// Nothing on the clock takes a lock: the driver owns the queue, Now and
// every Loop. A driven timer reuses its own queue node, so steady-state
// driving allocates nothing (TestWheelParkAllocs pins this, and
// TestTimerRescheduleAllocs pins the same for a timer moved from far to
// near).
//
// # Pooling invariants
//
// The data plane recycles payload buffers to keep fleet-scale runs out
// of the allocator:
//
//   - Segment buffers (tryWrite → release) come from a process-wide
//     sync.Pool. A buffer is owned by the direction from enqueue until
//     the reader releases its last borrowed byte (or the direction
//     aborts), then returns to the pool. Ring-buffer queues zero popped
//     slots, so a drained connection pins no payload memory (the old
//     `q = q[1:]` re-slicing retained every delivered segment for the
//     connection's lifetime).
//   - Segments enqueued at an identical arrival instant coalesce into
//     the queue tail when the pooled buffer has room; arrival instants
//     and byte order are unchanged, only queue churn shrinks.
//   - The jitter/loss rng is seeded lazily on the first draw; links
//     with neither jitter nor loss never pay the ~600-word math/rand
//     seeding. Draw sequences are unchanged for links that do draw.
//     Not drawing is not the only way out of that cost: a stream read
//     once and dropped (trace.Lognormal's per-slot variate, fleet's
//     participation draw) goes through trace.NewSource, which computes
//     math/rand's first value in closed form and builds the register
//     only for a second. A direction reads many values, so it seeds.
//
// Consumers keep their own pools layered on the same idea: httpx pools
// response-head and request staging buffers, and core recycles
// chunk bodies between range requests and in-order delivery. In every
// case the invariant is the same: a buffer returns to its pool only
// after the last reader of its bytes has finished, and pooled buffers
// above a size cap are dropped so one-off spikes cannot pin memory.
// The retention half of these rules is mechanically enforced by
// detlint/borrowck: storing a borrowed view (a CachedSlice result, a
// WriteStable argument, a pooled payload) into longer-lived state,
// capturing it in a spawned closure, or growing it with append is a
// finding. Likewise detlint/globalrand keeps every rng seed-derived and
// detlint/maprange keeps map-iteration order out of anything
// observable; `go run ./cmd/detlint ./...` runs the whole suite.
//
// The emulator is a fluid model at a configurable pacing quantum
// (default 20 ms of line time per delivery segment): transfer durations,
// per-request round trips and slow-start ramps are exact at quantum
// granularity, which is far finer than the chunk sizes (16 KB..1 MB)
// scheduled by the systems under test.
package netem
