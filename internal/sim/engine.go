package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Violation records a node exceeding its memory bound μ. One Violation
// is recorded per offending node per run: Round and Words describe the
// node's first overrun, OverRounds counts every round the node spent
// over μ.
type Violation struct {
	Node       int
	Round      int   // round of the node's first overrun
	Words      int64 // live words at the first overrun
	OverRounds int   // total rounds this node exceeded μ during the run
}

func (v Violation) String() string {
	return fmt.Sprintf("node %d exceeded μ at round %d with %d words (%d rounds over μ)",
		v.Node, v.Round, v.Words, v.OverRounds)
}

// Result summarizes one simulated execution.
type Result struct {
	// Rounds is the number of communication rounds, i.e. the maximum
	// number of Tick calls performed by any node.
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int64
	// Dropped counts undelivered messages: messages addressed to nodes
	// that had already terminated, plus — when a fault plan is active —
	// messages lost to injected faults. Sent = Messages + Dropped
	// always holds; FaultDrops is the fault-induced subset.
	Dropped int64
	// FaultDrops counts the messages dropped by the fault layer
	// (message loss, down edges, parked destinations). Always ≤ Dropped
	// and 0 without WithFaults.
	FaultDrops int64
	// Crashes counts fault-layer node crashes over the whole run;
	// Restarts counts the crashed nodes that were restarted (a node
	// still parked — or terminated by an abort while parked — when the
	// run ends has crashed without restarting).
	Crashes  int64
	Restarts int64
	// Outputs holds, per node, the values emitted via Ctx.Emit.
	Outputs [][]any
	// PeakWords holds, per node, the peak live memory in words
	// (algorithm charges plus inbox).
	PeakWords []int64
	// Violations lists the μ overruns, one entry per offending node in
	// order of first occurrence (empty when μ ≤ 0, i.e. unbounded).
	Violations []Violation
}

// MaxPeakWords returns the largest per-node memory peak.
func (r *Result) MaxPeakWords() int64 {
	var m int64
	for _, w := range r.PeakWords {
		if w > m {
			m = w
		}
	}
	return m
}

// TotalOutputs returns the number of emitted values across all nodes.
func (r *Result) TotalOutputs() int {
	t := 0
	for _, o := range r.Outputs {
		t += len(o)
	}
	return t
}

// OverMuRounds returns the total number of (node, round) pairs that
// exceeded μ, i.e. the sum of OverRounds over all violations.
func (r *Result) OverMuRounds() int {
	t := 0
	for _, v := range r.Violations {
		t += v.OverRounds
	}
	return t
}

// Option configures an Engine.
type Option func(*Engine)

// WithMu sets the per-node memory bound μ in words. μ ≤ 0 means
// unbounded (classic CONGEST).
func WithMu(mu int64) Option { return func(e *Engine) { e.mu = mu } }

// WithSeed seeds the engine and per-node RNGs. Runs with equal seeds and
// inputs are deterministic.
func WithSeed(seed int64) Option { return func(e *Engine) { e.seed = seed } }

// WithEdgeCap sets the number of messages allowed per directed edge per
// round (default 1, the CONGEST bandwidth).
func WithEdgeCap(c int) Option { return func(e *Engine) { e.edgeCap = c } }

// WithInboxOrder selects how each round's inbox is ordered.
func WithInboxOrder(o InboxOrder) Option { return func(e *Engine) { e.order = o } }

// WithStrictMemory makes a μ violation abort the run with an error
// instead of merely being recorded.
func WithStrictMemory() Option { return func(e *Engine) { e.strict = true } }

// WithMaxRounds bounds the execution length as a runaway guard
// (default 2,000,000 rounds).
func WithMaxRounds(r int) Option { return func(e *Engine) { e.maxRounds = r } }

// WithSimWorkers sets the number of delivery workers the engine's round
// loop shards routing, inbox ordering, memory accounting and the resume
// fan-out across. w ≥ 1 is an explicit count; w < 1 selects
// runtime.GOMAXPROCS(0). The effective pool is capped at the shard
// count, so small topologies always run the serial inline path.
// Results are bit-for-bit identical for every worker count.
func WithSimWorkers(w int) Option {
	return func(e *Engine) {
		if w < 1 {
			w = 0 // resolved to GOMAXPROCS at Run
		}
		e.workers = w
	}
}

// defaultWorkers is the process-wide worker count used by engines built
// without WithSimWorkers: 1 (serial) unless SetDefaultWorkers was called.
var defaultWorkers = func() *atomic.Int32 {
	v := new(atomic.Int32)
	v.Store(1)
	return v
}()

// SetDefaultWorkers sets the process-wide default delivery worker count
// for engines created without an explicit WithSimWorkers option — the
// hook cmd/muexp's -simworkers flag uses to reach the engines the
// experiment runners construct internally. w < 1 selects
// runtime.GOMAXPROCS(0). Safe for concurrent use; affects engines
// created after the call.
func SetDefaultWorkers(w int) {
	if w < 1 {
		w = 0
	}
	defaultWorkers.Store(int32(w))
}

// ErrMaxRounds is returned when the round limit is exceeded.
var ErrMaxRounds = errors.New("sim: maximum round count exceeded")

// ErrMemory is returned in strict mode when a node exceeds μ.
var ErrMemory = errors.New("sim: node exceeded memory bound μ")

// Engine executes one program on a topology under μ-CONGEST rules.
type Engine struct {
	topo      Topology
	mu        int64
	seed      int64
	edgeCap   int
	order     InboxOrder
	strict    bool
	maxRounds int
	workers   int // configured; 0 = GOMAXPROCS, resolved at Run

	n     int
	round int
	nodes []nodeRT
	ctxs  []Ctx // flat per-node Ctx slots, from the run scratch
	// prog is the bound program, retained for the whole run (not just
	// phaseBind) so the fault layer can re-invoke Node on restart.
	prog    Program
	aborted bool
	runErr  error

	messages int64
	dropped  int64

	// Fault-injection state (see faults.go). hasFaults gates every
	// fault branch so an empty plan keeps the fault-free hot path
	// byte-identical and allocation-free.
	faults    FaultPlan
	hasFaults bool
	crashAck  chan struct{} // crash unwind handshake (see crashNode)
	crashes   int64
	restarts  int64
	parkedN   int       // currently parked nodes
	restartG  []goSpawn // goroutine-form restarts staged this fault point

	// Zero-channel barrier: every goroutine-form node that was resumed
	// into a round arrives back at the engine exactly once — by
	// publishing its outbox into senderOut and (when terminating) its
	// finished/err state into its nodeRT slot, then decrementing
	// arrivals. Only the node whose decrement reaches zero performs one
	// send on wake; the engine blocks on wake once per round instead of
	// draining n per-node signals from a shared channel. Stepped nodes
	// are not in the population: the delivery phases drive them inline,
	// so a pure-step run never touches arrivals or wake.
	arrivals atomic.Int64
	wake     chan struct{}

	// senderOut stages each sender's outbox for the round, written
	// directly by the node goroutine at Tick time; a non-nil entry
	// doubles as the "has staged messages" bit the route phase scans,
	// replacing the old sorted sender-id list.
	senderOut [][]routed

	// Sharded delivery state — see deliver.go.
	nshards  int
	shards   []*shardState
	poolSize int
	workCh   chan phaseKind
	workDone chan struct{}
	cursor   atomic.Int64
}

type routed struct {
	from, to int
	msg      Msg
}

type nodeRT struct {
	// step is non-nil for a node running the goroutine-free step form:
	// the delivery workers drive it inline (see step.go) instead of
	// resuming a goroutine through the resume channel, and the node
	// never joins the arrival barrier.
	step   StepProgram
	resume chan []Incoming
	// inbox is the node's delivery buffer. It is filled by deliver while
	// the node is blocked in Tick, handed to the node at resume, and
	// reused (overwritten) once the node reaches its next Tick — see the
	// Tick documentation for the resulting aliasing contract.
	inbox []Incoming
	// inboxWords is the memory charge of the inbox delivered at the last
	// barrier. It stays charged until the next barrier overwrites it:
	// the engine cannot observe the node dropping the slice earlier, so
	// strict-mode Charge accounting conservatively includes it.
	inboxWords int64
	live       int64 // words charged by the algorithm
	peak       int64
	ticks      int
	// sleep is the number of barriers a goroutine node still sleeps
	// through inside Ctx.Idle: set by the node before its arrival, then
	// counted down by the owning shard's resume dispatch, which meters
	// and discards the node's inbox and advances ticks in place of a
	// resume. Always 0 for stepped nodes.
	sleep int
	// done is the node's barrier-published termination bit: set by the
	// node goroutine (with nodeErr) before its final arrival decrement,
	// never cleared. Stable while the engine owns the round, so the
	// route phase's drop check may read any node's done flag.
	done bool
	// finished is the engine-side acknowledgment of done, set by the
	// owning shard's account phase. Only same-shard phase code reads it
	// concurrently, keeping cross-shard reads on the immutable done bit.
	finished bool
	nodeErr  error
	// Fault-layer state, all written at the serial fault point (or, for
	// crashing, read once by the unwinding node under the resume
	// channel's happens-before edge). parked means the node crashed and
	// awaits restart at restartRound; it stays set on a node the abort
	// path terminates while parked, marking that no goroutine backs the
	// done bit (the barrier population must not be decremented for it).
	parked       bool
	crashing     bool // node is being unwound by crashNode right now
	violation    bool // a Violation was already recorded for this node (dedup)
	restartRound int
	restarts     int
	outputs      []any
	vioIdx       int // index of this node's Violation in the run's slice
}

// runScratch is the per-run state whose allocation and zeroing dominate
// engine setup at large n: the node runtime slots (with their resume
// channels and inbox buffers), the Ctx slots (with their outbox and
// bandwidth-meter buffers), the staged-outbox table and the shard
// scratch. It is recycled across runs — of any engine, experiment
// sweeps run thousands back to back — through scratchPool. Everything
// semantic is reset in grab/initShards and, per Ctx slot, by newCtx at
// bind; only buffer capacities, resume channels and shard RNG sources
// survive, none of which is observable.
// release scrubs every reference to run-owned data before the state is
// pooled, so a pooled runScratch keeps nothing alive.
type runScratch struct {
	nodes     []nodeRT
	ctxs      []Ctx
	senderOut [][]routed
	shards    []*shardState
	gor       []goSpawn // spawn list of the run's goroutine nodes
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// grab checks a runScratch out of the pool and sizes it for n nodes,
// resetting every reused slot to its run-start state.
func grab(n int) *runScratch {
	sc := scratchPool.Get().(*runScratch)
	if cap(sc.nodes) < n {
		sc.nodes = make([]nodeRT, n)
		sc.ctxs = make([]Ctx, n)
		sc.senderOut = make([][]routed, n)
		return sc
	}
	sc.nodes = sc.nodes[:n]
	sc.ctxs = sc.ctxs[:n]
	sc.senderOut = sc.senderOut[:n]
	for i := range sc.nodes {
		rt := &sc.nodes[i]
		rt.step = nil
		rt.inbox = rt.inbox[:0]
		rt.inboxWords = 0
		rt.live = 0
		rt.peak = 0
		rt.ticks = 0
		rt.sleep = 0
		rt.done = false
		rt.finished = false
		rt.violation = false
		rt.vioIdx = 0
		rt.parked = false
		rt.crashing = false
		rt.restartRound = 0
		rt.restarts = 0
	}
	return sc
}

// release scrubs the references the finished run left behind (outputs
// now belong to the Result, engine references, RNGs and errors to
// nobody) and returns the scratch to the pool. Buffer capacities,
// resume channels and shard state stay for the next run to reuse; the
// next bind resets every Ctx slot (see newCtx).
func (sc *runScratch) release() {
	for i := range sc.nodes {
		rt := &sc.nodes[i]
		rt.step = nil
		rt.outputs = nil
		rt.nodeErr = nil
		c := &sc.ctxs[i]
		c.eng, c.rt, c.rng = nil, nil, nil
	}
	for _, st := range sc.shards {
		st.err = nil
	}
	// The spawn list holds func values referencing the finished run's
	// program; scrub them so the pooled scratch keeps nothing alive.
	for i := range sc.gor {
		sc.gor[i] = goSpawn{}
	}
	sc.gor = sc.gor[:0]
	scratchPool.Put(sc)
}

// New creates an engine over topo. The zero μ (unset WithMu) means
// unbounded memory.
func New(topo Topology, opts ...Option) *Engine {
	e := &Engine{
		topo:      topo,
		seed:      1,
		edgeCap:   1,
		maxRounds: 2_000_000,
		n:         topo.N(),
		workers:   int(defaultWorkers.Load()),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Mu returns the configured memory bound (≤ 0 when unbounded).
func (e *Engine) Mu() int64 { return e.mu }

// N returns the node count.
func (e *Engine) N() int { return e.n }

// Run executes program on every node and returns the aggregated result.
// program receives the node's Ctx; returning from program terminates the
// node. Run returns an error if the round limit was hit, a node
// panicked, or (in strict mode) μ was violated. It is RunProgram with
// Func(program): every node runs the classic blocking form on its own
// goroutine; use RunProgram with a Steps program for goroutine-free
// execution.
func (e *Engine) Run(program func(*Ctx)) (*Result, error) {
	return e.RunProgram(Func(program))
}

// RunProgram executes p on every node and returns the aggregated
// result. Every node is bound the same way: the bind phase calls
// p.Node on the node's fresh Ctx, and a fault-layer restart repeats
// exactly that. p picks each node's execution form (see Program):
// stepped nodes are driven inline by the delivery workers, goroutine
// nodes run the classic blocking path, and the two interleave freely in
// one run. Both forms, at every worker count, produce bit-for-bit
// identical results — the golden-digest and differential-oracle suites
// pin this.
func (e *Engine) RunProgram(p Program) (*Result, error) {
	sc := grab(e.n)
	e.nodes = sc.nodes
	e.ctxs = sc.ctxs
	e.wake = make(chan struct{}, 1)
	e.round = 0
	e.aborted = false
	e.runErr = nil
	e.messages = 0
	e.dropped = 0
	e.crashes = 0
	e.restarts = 0
	e.parkedN = 0
	e.prog = p
	if e.hasFaults && e.crashAck == nil {
		e.crashAck = make(chan struct{})
	}
	var violations []Violation

	e.initShards(sc)
	e.senderOut = sc.senderOut
	e.startPool()
	defer e.stopPool()

	// activeG counts the live goroutine-form nodes — the population of
	// the arrival barrier. Stepped nodes never arrive: the delivery
	// phases drive them inline, so phase completion is their barrier.
	activeG := e.bindNodes(sc)

	active := e.n
	woke := false // the engine itself completed the barrier (see dropSleepers)
	for active > 0 {
		// Wait for the barrier: the last arriving goroutine node performs
		// the one wake. Every node's pre-arrival writes (its senderOut
		// entry, its done/nodeErr slots, ticks, outputs, memory counters)
		// happen before this receive via the arrival counter, so the
		// phases may read them freely. Stepped nodes published theirs
		// inside the previous phase (or the bind phase), which completed
		// before this iteration; a pure-step round skips the wait — and
		// every channel operation — entirely. So does a round whose
		// barrier the engine completed itself because every goroutine node
		// it did not resume is asleep in Idle.
		if activeG > 0 && !woke {
			<-e.wake
		}
		// Serial fault point: with every node quiescent (goroutine nodes
		// parked in Tick, stepped nodes between phases), draw this
		// round's crash decisions and perform due restarts. Worker count
		// and execution mode are invisible here by construction.
		if e.hasFaults {
			activeG += e.applyFaults()
		}
		// The route phase also performs the barrier bookkeeping the old
		// serial collect loop did — poisoning retired inboxes, counting
		// newly finished nodes and harvesting their errors per shard — so
		// it parallelizes with routing.
		e.runPhase(phaseRoute)
		// Node errors are applied only after the whole barrier completed:
		// e.aborted may not change while stragglers are still reading it
		// on their way out of the previous Tick. Shards are drained in
		// ascending order and each harvests in ascending node id, so the
		// reported error is deterministically the lowest failing node's.
		var nodeErr error
		for _, st := range e.shards {
			active -= st.newlyFinished
			st.newlyFinished = 0
			activeG -= st.newlyFinishedG
			st.newlyFinishedG = 0
			if st.err != nil {
				if nodeErr == nil {
					nodeErr = st.err
				}
				st.err = nil
			}
		}
		if nodeErr != nil {
			e.aborted = true
			if e.runErr == nil {
				e.runErr = nodeErr
			}
		}
		// Violations recorded this barrier carry the pre-increment round
		// counter, matching the pre-sharding engine's stamps.
		r := e.round
		e.round++
		if e.round > e.maxRounds && active > 0 {
			e.aborted = true
			if e.runErr == nil {
				e.runErr = ErrMaxRounds
			}
		}
		if e.strict {
			// Strict mode needs every shard's accounting before the abort
			// decision, so delivery and resume are separate phases. The
			// barrier is re-armed — with the goroutine-node population
			// only — after the abort decision and before the first node
			// is resumed or stepped.
			e.runPhase(phaseAccount)
			e.mergeRound(r, &violations)
			if len(violations) > 0 {
				e.aborted = true
				if e.runErr == nil {
					e.runErr = fmt.Errorf("%w: %v", ErrMemory, violations[0])
				}
			}
			e.arrivals.Store(int64(activeG))
			e.runPhase(phaseResume)
		} else {
			// Fused fast path: each shard resumes (or steps) its own nodes
			// as soon as their inboxes are ordered and accounted — no
			// second barrier. Re-arm before the phase starts: resumed
			// goroutine nodes may reach their next Tick while other shards
			// are still accounting.
			e.arrivals.Store(int64(activeG))
			e.runPhase(phaseAccountResume)
			e.mergeRound(r, &violations)
		}
		woke = activeG > 0 && e.dropSleepers()
	}

	var faultDrops int64
	for _, st := range e.shards {
		e.messages += st.messages
		e.dropped += st.dropped
		faultDrops += st.faultDropped
	}
	res := &Result{
		Messages:   e.messages,
		Dropped:    e.dropped,
		FaultDrops: faultDrops,
		Crashes:    e.crashes,
		Restarts:   e.restarts,
		Outputs:    make([][]any, e.n),
		PeakWords:  make([]int64, e.n),
		Violations: violations,
	}
	for i := range e.nodes {
		rt := &e.nodes[i]
		res.Outputs[i] = rt.outputs
		res.PeakWords[i] = rt.peak
		if rt.ticks > res.Rounds {
			res.Rounds = rt.ticks
		}
	}
	// Every node has terminated (a goroutine node's final barrier
	// arrival is its last touch of run state; a stepped node's last
	// touch was inside a completed phase), so the scratch can go back
	// to the pool.
	sc.release()
	e.nodes, e.ctxs, e.senderOut, e.shards, e.prog = nil, nil, nil, nil, nil
	return res, e.runErr
}

// arrive is a node's barrier arrival: all of its round state is
// published (plain writes sequenced before the decrement), and the last
// arrival hands the round to the engine with a single channel send.
//
//muvet:hotpath
func (e *Engine) arrive() {
	if e.arrivals.Add(-1) == 0 {
		e.wake <- struct{}{}
	}
}

// dropSleepers takes the goroutine nodes that slept through this
// barrier out of the arrival barrier armed for the next one. The
// barrier is armed with every live goroutine node before the resume
// dispatch, since resumed nodes may arrive while other shards are still
// dispatching; sleepers will not arrive, so the engine subtracts them
// afterwards. Reports whether that subtraction completed the barrier —
// every resumed node had already arrived, or none was resumed — in
// which case no node sends on wake and the engine must not wait for it.
func (e *Engine) dropSleepers() bool {
	var slept int64
	for _, st := range e.shards {
		slept += int64(st.slept)
		st.slept = 0
	}
	return slept > 0 && e.arrivals.Add(-slept) == 0
}

// mergeRound folds the per-shard μ overruns of one barrier into the
// run's Violation list. Shards are visited in ascending order and each
// shard's overruns are recorded in ascending node id, so the merged
// order is identical to the pre-sharding per-node sweep.
func (e *Engine) mergeRound(round int, violations *[]Violation) {
	for _, st := range e.shards {
		for _, o := range st.over {
			rt := &e.nodes[o.node]
			if rt.violation {
				(*violations)[rt.vioIdx].OverRounds++
			} else {
				rt.violation = true
				rt.vioIdx = len(*violations)
				*violations = append(*violations,
					Violation{Node: o.node, Round: round, Words: o.words, OverRounds: 1})
			}
		}
		st.over = st.over[:0]
	}
}

// startPool resolves the configured worker count against GOMAXPROCS and
// the shard count, and launches the persistent delivery workers when
// more than one is useful. The pool lives for the whole Run; phases are
// dispatched through workCh.
func (e *Engine) startPool() {
	w := e.workers
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > e.nshards {
		w = e.nshards
	}
	if w < 1 {
		w = 1
	}
	e.poolSize = w
	if w == 1 {
		return
	}
	e.workCh = make(chan phaseKind)
	e.workDone = make(chan struct{}, w)
	for i := 0; i < w; i++ {
		go e.deliveryWorker()
	}
}

func (e *Engine) stopPool() {
	if e.workCh != nil {
		close(e.workCh)
		e.workCh = nil
	}
}

// runPhase executes one delivery phase over every shard: inline when the
// pool is serial, otherwise fanned out to the workers, which pull shard
// indices from a shared cursor. Shard-to-worker assignment is arbitrary;
// every phase's per-shard computation is self-contained (own RNG, own
// buckets, own destination range), so results do not depend on it.
func (e *Engine) runPhase(k phaseKind) {
	if e.poolSize == 1 {
		for s := 0; s < e.nshards; s++ {
			e.shardPhase(k, s)
		}
		return
	}
	e.cursor.Store(0)
	for i := 0; i < e.poolSize; i++ {
		e.workCh <- k
	}
	for i := 0; i < e.poolSize; i++ {
		<-e.workDone
	}
}

func (e *Engine) deliveryWorker() {
	for k := range e.workCh {
		for {
			s := int(e.cursor.Add(1) - 1)
			if s >= e.nshards {
				break
			}
			e.shardPhase(k, s)
		}
		e.workDone <- struct{}{}
	}
}

// poisonStale overwrites the retired contents of rt's inbox buffer
// (len 0, capacity holding last round's delivery) with sentinel values.
// Only called under the simdebug build tag — see debugPoison.
func poisonStale(rt *nodeRT) {
	stale := rt.inbox[:cap(rt.inbox)]
	for i := range stale {
		stale[i] = Incoming{From: -1, Msg: Msg{Kind: -1, A: -1, B: -1, C: -1}}
	}
}

var errAbort = errors.New("sim: run aborted")

// errCrash unwinds a goroutine-form node the fault layer crashed: the
// node's Tick panics it after the crash resume, and runNode's recover
// turns it into the crashAck handshake instead of a termination.
var errCrash = errors.New("sim: node crashed by fault injection")

func runNode(ctx *Ctx, program func(*Ctx)) {
	defer func() {
		var err error
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, errCrash) {
				// Crashed by the fault layer: the node is parked, not
				// terminated. Publish nothing and do not arrive — the
				// fault point already removed this node from the barrier
				// population and owns the slot until restart.
				ctx.eng.crashAck <- struct{}{}
				return
			}
			if e, ok := r.(error); ok && (errors.Is(e, errAbort) || errors.Is(e, ErrMemory)) {
				err = e
			} else {
				err = fmt.Errorf("sim: node %d panicked: %v", ctx.id, r)
			}
		}
		// Final barrier arrival: publish the termination, then decrement.
		// A node arrives at every barrier it was resumed into exactly
		// once — here or in Tick — so the engine's arrival count stays
		// exact.
		ctx.eng.finish(ctx, ctx.rt, err)
		ctx.eng.arrive()
	}()
	program(ctx)
}
