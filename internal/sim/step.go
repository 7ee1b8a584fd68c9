package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Step-function execution: a node program written as an explicit state
// machine instead of a blocking func. The shard workers drive stepped
// nodes inline inside the account/resume phases — no per-node
// goroutine, no resume channel, no per-node stack, and no barrier
// arrival: the phase completing *is* the node's arrival. Only nodes
// running the classic blocking form participate in the zero-channel
// barrier, so a pure-step run performs zero channel operations per
// round.
//
// The two forms are observably identical. Step call k executes exactly
// the code a blocking program runs between its (k-1)-th and k-th Tick:
// the first Step receives a nil inbox (a blocking program has received
// nothing before its first Tick), returning true is Tick (the staged
// outbox is handed to the engine, the next Step receives the delivered
// inbox), and returning false is the program returning. Ctx.Round
// inside Step k reports k-1, the same value a blocking program sees
// between those Ticks. The inbox slice passed to Step aliases an
// engine-owned buffer under the same contract as Tick's return value:
// it is valid only until the node's next Step (simdebug poisons retired
// buffers here too).

// StepProgram is a node program in explicit state-machine form. The
// engine calls Step once per round with the messages delivered at the
// last barrier (nil on the first call, and whenever nothing arrived).
// Returning true ends the node's round — queued sends are staged for
// delivery — and returning false terminates the node, exactly like
// returning from a blocking program. A StepProgram must not call
// c.Tick or c.Idle: the engine owns the round boundary.
type StepProgram interface {
	Step(c *Ctx, in []Incoming) bool
}

// Program is the generalized node-program surface of Engine.RunProgram:
// Node picks each node's execution form. Returning a non-nil
// StepProgram makes the node goroutine-free (stepped inline by the
// delivery workers); returning a nil StepProgram and a non-nil func
// runs the node as a classic blocking goroutine. Mixed runs — some
// nodes stepped, some blocking — are valid and stay deterministic.
//
// Node is called once per node during engine setup — and once more per
// fault-layer restart of a node (see WithFaults), which re-binds the
// node exactly like setup did. It may be called concurrently for
// distinct nodes; it must not retain c beyond the node's own execution.
type Program interface {
	Node(c *Ctx) (StepProgram, func(*Ctx))
}

// Func adapts a classic blocking program to the Program surface; it is
// what Engine.Run wraps its argument in. Every node runs the same func
// on its own goroutine.
type Func func(*Ctx)

// Node implements Program: every node takes the goroutine form.
func (f Func) Node(*Ctx) (StepProgram, func(*Ctx)) { return nil, f }

// Steps adapts a per-node StepProgram factory to the Program surface:
// every node runs goroutine-free. The factory may be called
// concurrently for distinct nodes.
type Steps func(c *Ctx) StepProgram

// Node implements Program: every node takes the step form.
func (s Steps) Node(c *Ctx) (StepProgram, func(*Ctx)) { return s(c), nil }

// goSpawn is one goroutine-form node staged for spawning once every
// node it shares a barrier with is bound.
type goSpawn struct {
	id int
	fn func(*Ctx)
}

// bindNode binds node id to the run's Program, at run start and again
// on every fault-layer restart: it resets the node's Ctx slot to a
// fresh execution (Round() 0, the private RNG replaying its stream from
// the start, a zeroed bandwidth meter — only Restarts() tells a
// restarted execution from a fresh one) and calls Program.Node. A
// stepped node runs its first step inline — the code a blocking program
// executes before its first Tick — so it stages its round-0 sends
// exactly like a freshly spawned goroutine node arriving at the first
// barrier. A goroutine node gets its resume channel and its func is
// returned for spawning; spawning here would let it race still-binding
// nodes at the barrier.
func (e *Engine) bindNode(id int) func(*Ctx) {
	c := newCtx(e, id)
	step, fn := e.prog.Node(c)
	rt := &e.nodes[id]
	rt.step = step
	if step != nil {
		e.stepNode(c, rt)
		return nil
	}
	if fn == nil {
		panic(fmt.Sprintf("sim: Program.Node returned neither form (nil StepProgram and nil func) for node %d", id))
	}
	if rt.resume == nil {
		rt.resume = make(chan []Incoming, 1)
	}
	return fn
}

// bindNodes binds every node through the delivery pool (phaseBind,
// parallel at large n), then spawns the goroutine-form nodes the shards
// staged. Returns the goroutine-node count — the population of the
// arrival barrier.
func (e *Engine) bindNodes(sc *runScratch) int {
	e.runPhase(phaseBind)
	gor := sc.gor[:0]
	for _, st := range e.shards {
		gor = append(gor, st.gor...)
		for i := range st.gor {
			st.gor[i] = goSpawn{}
		}
		st.gor = st.gor[:0]
	}
	sc.gor = gor
	e.spawn(gor)
	return len(gor)
}

// spawn arms the arrival barrier with gor's population, then starts one
// goroutine per staged node; each runs until its first Tick (or its
// return) and arrives. It serves both the run-start spawn and the fault
// point's restart mini-barrier. All goroutines run one shared closure
// and claim their node from a counter: spawning allocates one closure
// per call, where `go runNode(...)` with arguments would heap-allocate
// per node. Entries are claimed exactly once, so which goroutine serves
// which node is irrelevant.
func (e *Engine) spawn(gor []goSpawn) {
	if len(gor) == 0 {
		return
	}
	e.arrivals.Store(int64(len(gor)))
	var next atomic.Int64
	ctxs := e.ctxs
	nodeMain := func() {
		g := gor[next.Add(1)-1]
		runNode(&ctxs[g.id], g.fn)
	}
	for range gor {
		go nodeMain()
	}
}

// stepNode drives one round of a stepped node inline on the calling
// delivery worker: hand the inbox to Step, and either stage the
// resulting outbox (continue) or record termination (return/panic).
// This is the step-mode twin of resumeNode + the node's Tick, minus
// the channel hop, the goroutine park and the barrier arrival.
//
//muvet:hotpath
func (e *Engine) stepNode(c *Ctx, rt *nodeRT) {
	in := rt.inbox
	if len(in) == 0 {
		in = nil
	}
	rt.inbox = rt.inbox[:0]
	if e.aborted {
		// Aborted runs unwind goroutine nodes via the errAbort panic,
		// which the error harvest filters out; terminating with a nil
		// error is the observably identical step-mode ending.
		e.finish(c, rt, nil)
		return
	}
	cont, err := e.stepSafe(c, rt.step, in)
	if !cont {
		e.finish(c, rt, err)
		return
	}
	rt.ticks++
	if out := c.takeOutbox(); len(out) > 0 {
		e.senderOut[c.id] = out
	}
}

// stepSafe runs one Step call, translating a panic into the same node
// error runNode's recover produces for goroutine programs — the error
// strings are part of the determinism contract. (Not a hot path: the
// deferred recover is open-coded and allocation-free on the non-panic
// path, but hotalloc cannot see that.)
func (e *Engine) stepSafe(c *Ctx, p StepProgram, in []Incoming) (cont bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			cont = false
			if pe, ok := r.(error); ok && (errors.Is(pe, errAbort) || errors.Is(pe, ErrMemory)) {
				err = pe
			} else {
				err = fmt.Errorf("sim: node %d panicked: %v", c.id, r)
			}
		}
	}()
	return p.Step(c, in), nil
}

// finish publishes a node's termination: the done bit, the error and
// any last staged sends. A stepped node terminates with this alone —
// stepped nodes never enter the barrier population — while runNode
// follows it with the goroutine node's final arrival.
//
//muvet:hotpath
func (e *Engine) finish(c *Ctx, rt *nodeRT, err error) {
	rt.nodeErr = err
	rt.done = true
	if out := c.takeOutbox(); len(out) > 0 {
		e.senderOut[c.id] = out
	}
}
