package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/netem"
	"repro/internal/origin"
)

// Config assembles an MSPlayer session.
type Config struct {
	// Clock drives all emulated timing.
	Clock *netem.Clock
	// VideoID selects the video (11-character YouTube-style ID).
	VideoID string
	// Itag selects the format (22 = MP4 720p, the paper's profile).
	Itag int
	// Scheduler decides per-path chunk sizes. Required.
	Scheduler Scheduler
	// Buffer sets the ON/OFF playout thresholds.
	Buffer BufferConfig
	// Paths lists one or two network paths. One path reproduces the
	// single-path baselines; two is MSPlayer proper.
	Paths []PathConfig
	// MaxOutOfOrder bounds stored out-of-order chunks (default 1, the
	// paper's memory-conscious design point).
	MaxOutOfOrder int
	// Sink receives the in-order video byte stream (nil to discard).
	Sink io.Writer
	// StopAfterPreBuffer ends the session when pre-buffering completes
	// (the Fig. 2-4 measurement mode).
	StopAfterPreBuffer bool
	// StopAfterRefills > 0 ends the session once that many re-buffering
	// cycles have been measured (the Fig. 5 mode).
	StopAfterRefills int
	// OnRun, if set, is called in the session's first loop step, before
	// any machine starts. The testbed uses it to arm pending At events,
	// so their offsets count from the session start.
	OnRun func()
	// Seed decorrelates the per-path backoff jitter streams across
	// sessions. Zero is a valid seed; sessions sharing a seed draw
	// identical jitter sequences.
	Seed int64
}

func (c Config) validate() error {
	if c.Clock == nil {
		return errors.New("core: Config.Clock is required")
	}
	if c.VideoID == "" {
		return errors.New("core: Config.VideoID is required")
	}
	if c.Scheduler == nil {
		return errors.New("core: Config.Scheduler is required")
	}
	if len(c.Paths) < 1 || len(c.Paths) > 2 {
		return fmt.Errorf("core: %d paths configured; MSPlayer uses one or two", len(c.Paths))
	}
	for i, p := range c.Paths {
		if p.Iface == nil {
			return fmt.Errorf("core: path %d has no interface", i)
		}
		if p.ProxyAddr == "" {
			return fmt.Errorf("core: path %d has no proxy address", i)
		}
	}
	if c.Itag == 0 {
		return errors.New("core: Config.Itag is required")
	}
	return nil
}

// Player is one MSPlayer streaming session.
type Player struct {
	cfg     Config
	clock   *netem.Clock
	cm      *chunkManager
	metrics *metricsRecorder

	mu     sync.Mutex
	buffer *PlayoutBuffer
	start  time.Time

	// sess is the running session's machine set, installed by RunEvented
	// before the first machine starts; kick re-polls it.
	sess *evSession

	// Session lifecycle state, guarded by smu.
	smu         sync.Mutex
	sessionDone bool // stop condition reached
	sealOnce    sync.Once

	// Byte accounting sealed at the session-end instant (see seal):
	// Elapsed/TotalBytes/Paths define the session's result at the moment
	// its outcome was decided — the stop condition for clean sessions, or
	// teardown entry for cancelled/aborted ones — deliberately excluding
	// the teardown's own artifacts (abort-induced request failures) from
	// QoE. Both instants are deterministic virtual instants for clean
	// sessions, so Metrics is bit-identical per seed. Guarded by smu.
	finElapsed time.Duration
	finBytes   int64
	finPaths   []PathStats
}

// NewPlayer validates cfg and builds a session (not yet started).
func NewPlayer(cfg Config) (*Player, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxOutOfOrder == 0 {
		cfg.MaxOutOfOrder = 1
	}
	p := &Player{
		cfg:   cfg,
		clock: cfg.Clock,
	}
	p.cm = newChunkManager(cfg.MaxOutOfOrder, cfg.Sink, p.kick)
	p.cm.gate = true // pre-buffering starts fetching immediately
	p.cm.onDeliver = p.onDeliver
	networks := make([]string, len(cfg.Paths))
	for i, pc := range cfg.Paths {
		n := pc.Network
		if n == "" {
			n = pc.Iface.Name()
		}
		networks[i] = n
	}
	p.metrics = newMetricsRecorder(networks, time.Time{})
	return p, nil
}

// onBootstrap is called by whichever path decodes its JSON first; it
// sizes the chunk manager and creates the playout buffer.
func (p *Player) onBootstrap(info *origin.VideoInfo, contentLength int64) {
	p.cm.setTotal(contentLength)
	p.mu.Lock()
	if p.buffer != nil {
		p.mu.Unlock()
		return
	}
	var bps float64
	for _, f := range info.Formats {
		if f.Itag == p.cfg.Itag {
			bps = float64(f.Bitrate) / 8
		}
	}
	videoLen := time.Duration(info.LengthSeconds) * time.Second
	p.buffer = NewPlayoutBuffer(p.cfg.Buffer, bps, videoLen, p.start, p.onGate)
	buf := p.buffer
	p.mu.Unlock()
	p.cm.setLimit(func() int64 { return buf.GoalOffset(p.clock.Now()) })
	if b, ok := p.cfg.Scheduler.(*BulkScheduler); ok {
		b.SetGoal(func() int64 { return buf.GoalBytes(p.clock.Now()) })
	}
	p.kick() // the gater was parked waiting for the buffer to exist
}

// kick enqueues a session re-poll step: every lifecycle change a parked
// machine may be waiting on (buffer created, gate turned OFF, books
// sealed, chunk-manager state) lands here.
func (p *Player) kick() { p.sess.loop.Do(p.sess.step) }

// onGate reacts to buffer gate flips: ON/OFF propagates to the chunk
// manager, and OFF transitions kick the gater so it can schedule the
// next LowWater crossing.
func (p *Player) onGate(on bool) {
	p.cm.setGate(on)
	if !on {
		p.kick()
	}
}

// onDeliver advances the playout buffer as the in-order frontier moves
// and evaluates stop conditions.
func (p *Player) onDeliver(frontier int64) {
	p.mu.Lock()
	buf := p.buffer
	p.mu.Unlock()
	if buf == nil {
		return
	}
	now := p.clock.Now()
	buf.Deliver(frontier, now)
	if p.cfg.StopAfterPreBuffer {
		if _, ok := buf.PreBufferTime(); ok {
			p.finish()
		}
	}
	if n := p.cfg.StopAfterRefills; n > 0 && len(buf.Refills()) >= n {
		p.finish()
	}
	if p.cm.Done() {
		p.finish()
	}
}

// phase returns the current buffering phase for byte accounting.
func (p *Player) phase() Phase {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.buffer == nil || !p.buffer.Started() {
		return PhasePreBuffer
	}
	return PhaseReBuffer
}

// finish marks the stop condition reached, sealing the session's books
// at the current instant. It runs in a loop step (a path's delivery
// callback or the gater) at a deterministic virtual instant.
func (p *Player) finish() { p.seal(true) }

// seal freezes the session's byte accounting at the caller's current
// instant, exactly once. markDone additionally records that the stop
// condition was reached (as opposed to an interrupt or every path
// exiting, where teardown seals on entry instead).
func (p *Player) seal(markDone bool) {
	p.sealOnce.Do(func() {
		p.mu.Lock()
		start := p.start
		p.mu.Unlock()
		elapsed := p.clock.Now().Sub(start)
		bytes := p.cm.Frontier()
		paths := p.metrics.snapshot()
		p.smu.Lock()
		p.finElapsed = elapsed
		p.finBytes = bytes
		p.finPaths = paths
		if markDone {
			p.sessionDone = true
		}
		p.smu.Unlock()
		p.kick()
	})
}

// Run executes the session until its stop condition (or ctx
// cancellation) and returns the collected metrics. It is the
// synchronous convenience over RunEvented: the calling goroutine claims
// the clock's driver role, starts the machines on a private loop and
// drives the clock until they complete, so the whole session advances
// deterministically. ctx is checked between events; a cancellation ends
// the session at the instant it is seen. The clock must not have a live
// driver already (Register panics); such callers use RunEvented and
// drive the clock themselves.
func (p *Player) Run(ctx context.Context) (*Metrics, error) {
	driver := p.clock.Register()
	defer driver.Unregister()

	var (
		m    *Metrics
		err  error
		done bool
	)
	es := p.RunEvented(netem.NewLoop(), func(rm *Metrics, rerr error) {
		m, err, done = rm, rerr, true
	})
	driver.Await(func() bool { return done || ctx.Err() != nil })
	// Each interrupt below finishes the session synchronously (no loop
	// step is running) and is a no-op once it has completed.
	switch {
	case ctx.Err() != nil:
		es.interrupt(ctx.Err())
	case p.clock.Stopped():
		es.Interrupt() // testbed closed mid-session: collect the partial result
	default:
		es.interrupt(errStalled) // no event left that could finish it
	}
	return m, err
}

// collect assembles the session Metrics from the sealed books. The
// values were sealed at the session-end instant (clean stop or teardown
// entry), so the teardown's own artifacts never leak into the result.
func (p *Player) collect() *Metrics {
	m := &Metrics{Scheduler: p.cfg.Scheduler.Name()}
	p.smu.Lock()
	m.Paths = p.finPaths
	m.Elapsed = p.finElapsed
	m.TotalBytes = p.finBytes
	p.smu.Unlock()
	p.mu.Lock()
	buf := p.buffer
	p.mu.Unlock()
	if buf != nil {
		if d, ok := buf.PreBufferTime(); ok {
			m.PreBufferTime = d
			m.PreBufferDone = true
		}
		m.Refills = buf.Refills()
		m.Stalls = buf.Stalls()
	}
	return m
}

// Buffered exposes the current buffered playback time (0 before the
// first bootstrap); used by examples for progress display.
func (p *Player) Buffered() time.Duration {
	p.mu.Lock()
	buf := p.buffer
	p.mu.Unlock()
	if buf == nil {
		return 0
	}
	return buf.Buffered(p.clock.Now())
}
