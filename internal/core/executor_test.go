package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ezbft/internal/auth"
	"ezbft/internal/kvstore"
	"ezbft/internal/types"
)

// TestOpClassesMatchInterferes pins the executor's footprint interference
// classes to the protocol's interference relation: for every pair of
// non-noop operations on a shared key, opClassesInterfere must agree with
// types.Command.Interferes. (No-ops never reach the footprint machinery —
// they resolve to actNoop before scheduling.)
func TestOpClassesMatchInterferes(t *testing.T) {
	ops := []types.Op{types.OpGet, types.OpPut, types.OpIncr, types.Op(99)}
	for _, a := range ops {
		for _, b := range ops {
			ca := types.Command{Client: 1, Timestamp: 1, Op: a, Key: "k"}
			cb := types.Command{Client: 2, Timestamp: 1, Op: b, Key: "k"}
			want := ca.Interferes(cb)
			got := opClassesInterfere(opClassOf(a), opClassOf(b))
			if got != want {
				t.Errorf("opClassesInterfere(%v, %v) = %v, Interferes = %v", a, b, got, want)
			}
		}
	}
}

// execScriptStep is one step of a generated execution workload: either an
// execution pass or a commit of one batch into one space.
type execScriptStep struct {
	execute bool
	space   types.ReplicaID
	cmds    []types.Command
}

// genExecScript builds a randomized workload: batches of mixed GET/PUT/INCR
// (plus occasional no-ops) over a small key space so dependency chains and
// multi-entry closures form, duplicate commands re-committed under new
// instances so the exactly-once memo is exercised, and execution passes
// interleaved at random points.
func genExecScript(rng *rand.Rand, steps int) []execScriptStep {
	const nClients = 6
	const nSpaces = 4
	const keySpace = 5
	nextTs := make([]uint64, nClients)
	var issued []types.Command
	script := make([]execScriptStep, 0, steps)
	for i := 0; i < steps; i++ {
		if rng.Intn(4) == 0 {
			script = append(script, execScriptStep{execute: true})
			continue
		}
		batch := 1 + rng.Intn(3)
		cmds := make([]types.Command, 0, batch)
		for j := 0; j < batch; j++ {
			if len(issued) > 0 && rng.Intn(5) == 0 {
				// Duplicate: an already-issued command lands in a second
				// instance (a re-proposal after an owner change would do
				// this); the memo must keep it exactly-once.
				cmds = append(cmds, issued[rng.Intn(len(issued))])
				continue
			}
			client := types.ClientID(rng.Intn(nClients))
			nextTs[client]++
			cmd := types.Command{
				Client:    client,
				Timestamp: nextTs[client],
				Key:       fmt.Sprintf("key-%d", rng.Intn(keySpace)),
			}
			switch rng.Intn(10) {
			case 0:
				cmd.Op = types.OpNoop
				cmd.Key = ""
			case 1, 2, 3:
				cmd.Op = types.OpGet
			case 4, 5:
				cmd.Op = types.OpIncr
			default:
				cmd.Op = types.OpPut
				cmd.Value = []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
			}
			issued = append(issued, cmd)
			cmds = append(cmds, cmd)
		}
		script = append(script, execScriptStep{space: types.ReplicaID(rng.Intn(nSpaces)), cmds: cmds})
	}
	return script
}

// runExecScript replays one workload on a fresh harness with the given
// worker count and returns the harness for inspection.
func runExecScript(t *testing.T, script []execScriptStep, workers int) *ExecHarness {
	t.Helper()
	h, err := NewExecHarness(ReplicaConfig{
		Self: 0, N: 4, App: kvstore.New(), Auth: auth.Noop{},
		ExecWorkers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range script {
		if step.execute {
			h.Execute()
		} else {
			h.Commit(step.space, step.cmds...)
		}
	}
	h.Execute()
	if h.Pending() != 0 {
		t.Fatalf("workers=%d: %d instances still pending after drain", workers, h.Pending())
	}
	return h
}

// TestParallelExecMatchesSerialRandomized is the randomized
// linearizability-style checker: shuffled commit interleavings replay
// against the serial oracle, and the parallel executor must reproduce the
// oracle's execution log (instances, positions, commands, results, order),
// state digest, and execution count exactly, at every worker count.
func TestParallelExecMatchesSerialRandomized(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		script := genExecScript(rand.New(rand.NewSource(seed)), 120)
		oracle := runExecScript(t, script, 0)
		wantLog := oracle.ExecutedLog()
		wantDigest := oracle.Digest()
		wantExecs := oracle.Stats().FinalExecutions
		if wantExecs == 0 {
			t.Fatalf("seed %d: oracle executed nothing", seed)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			h := runExecScript(t, script, workers)
			if got := h.Stats().FinalExecutions; got != wantExecs {
				t.Errorf("seed %d workers %d: %d final executions, oracle %d", seed, workers, got, wantExecs)
			}
			if got := h.Digest(); got != wantDigest {
				t.Errorf("seed %d workers %d: digest %v, oracle %v", seed, workers, got, wantDigest)
			}
			gotLog := h.ExecutedLog()
			if !reflect.DeepEqual(gotLog, wantLog) {
				diff := len(gotLog)
				for i := range gotLog {
					if i >= len(wantLog) || !reflect.DeepEqual(gotLog[i], wantLog[i]) {
						diff = i
						break
					}
				}
				var g, w any
				if diff < len(gotLog) {
					g = gotLog[diff]
				}
				if diff < len(wantLog) {
					w = wantLog[diff]
				}
				t.Fatalf("seed %d workers %d: execution log diverges from oracle at record %d (of %d/%d)\n got %+v\nwant %+v",
					seed, workers, diff, len(gotLog), len(wantLog), g, w)
			}
			if workers > 1 {
				if h.Stats().ParallelClosures == 0 {
					t.Errorf("seed %d workers %d: parallel executor never engaged", seed, workers)
				}
			} else if h.Stats().ParallelClosures != 0 {
				t.Errorf("seed %d workers %d: parallel executor engaged on the serial path", seed, workers)
			}
		}
	}
}

// TestParallelExecExactlyOnceAcrossClosures pins the exactly-once memo
// under the parallel executor when the same command lands in two different
// closures of one execution pass: two independent entries (no dependency
// edges — a Byzantine participant lying about deps produces exactly this)
// carry the same client request; the application must execute it once, the
// second occurrence reusing the memoized result.
func TestParallelExecExactlyOnceAcrossClosures(t *testing.T) {
	store := kvstore.New()
	rep, err := NewReplica(ReplicaConfig{
		Self: 0, N: 4, App: store, Auth: auth.Noop{},
		ExecWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.exec == nil {
		t.Fatal("parallel executor not enabled")
	}
	rep.RecordExecutions()
	cmd := types.Command{Client: 7, Timestamp: 1, Op: types.OpPut, Key: "dup", Value: []byte("v")}
	for i, space := range []types.ReplicaID{0, 1} {
		e := &entry{
			inst:      types.InstanceID{Space: space, Slot: 1},
			cmd:       cmd,
			cmdDigest: cmd.Digest(),
			deps:      types.NewInstanceSet(),
			seq:       types.SeqNumber(i + 1),
			status:    StatusCommitted,
		}
		rep.log.put(e)
		rep.pendingExec[e.inst] = e
	}
	rep.tryExecute(inertCtx{})
	if len(rep.pendingExec) != 0 {
		t.Fatalf("%d instances still pending", len(rep.pendingExec))
	}
	finals, _, _ := store.Stats()
	if finals != 1 {
		t.Fatalf("application executed the duplicate %d times, want exactly 1", finals)
	}
	log := rep.ExecutedLog()
	if len(log) != 2 {
		t.Fatalf("execution log has %d records, want 2", len(log))
	}
	if !log[0].Result.Equal(log[1].Result) {
		t.Fatalf("duplicate results differ: %+v vs %+v", log[0].Result, log[1].Result)
	}
}

// TestParallelExecExactlyOnceWithinClosure is the same guarantee when the
// duplicate occurrences are dependency-linked into one closure (the normal
// honest shape, since identical commands interfere): the in-pass claim set
// must route the second occurrence to the memo even though scheduling
// happens before any memo write.
func TestParallelExecExactlyOnceWithinClosure(t *testing.T) {
	store := kvstore.New()
	h, err := NewExecHarness(ReplicaConfig{
		Self: 0, N: 4, App: store, Auth: auth.Noop{},
		ExecWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cmd := types.Command{Client: 3, Timestamp: 9, Op: types.OpIncr, Key: "ctr"}
	h.Commit(0, cmd)
	h.Commit(1, cmd) // duplicate: depends on the first via the key index
	h.Execute()
	if h.Pending() != 0 {
		t.Fatalf("%d instances still pending", h.Pending())
	}
	finals, _, _ := store.Stats()
	if finals != 1 {
		t.Fatalf("application executed the duplicate %d times, want exactly 1", finals)
	}
	v, _ := store.Get("ctr")
	if got := kvstore.Counter(v); got != 1 {
		t.Fatalf("counter incremented %d times, want 1", got)
	}
}

// opaqueSpec wraps the store exposing only SpeculativeApplication.
type opaqueSpec struct{ inner *kvstore.Store }

func (o opaqueSpec) Apply(cmd types.Command) types.Result        { return o.inner.Apply(cmd) }
func (o opaqueSpec) Digest() types.Digest                        { return o.inner.Digest() }
func (o opaqueSpec) SpecExecute(cmd types.Command) types.Result  { return o.inner.SpecExecute(cmd) }
func (o opaqueSpec) Rollback()                                   { o.inner.Rollback() }
func (o opaqueSpec) PromoteFinal(cmd types.Command) types.Result { return o.inner.PromoteFinal(cmd) }

// TestParallelExecutorRequiresContract: ExecWorkers > 1 with an application
// that does not implement types.ConcurrentApplication silently keeps the
// serial path (automatic fallback for opaque apps), and worker counts 0/1
// never build the executor even with the contract present.
func TestParallelExecutorRequiresContract(t *testing.T) {
	rep, err := NewReplica(ReplicaConfig{
		Self: 0, N: 4, App: opaqueSpec{kvstore.New()}, Auth: auth.Noop{},
		ExecWorkers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.exec != nil {
		t.Fatal("executor built for an application without the contract")
	}
	for _, w := range []int{0, 1} {
		rep, err := NewReplica(ReplicaConfig{
			Self: 0, N: 4, App: kvstore.New(), Auth: auth.Noop{},
			ExecWorkers: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.exec != nil {
			t.Fatalf("executor built at ExecWorkers=%d", w)
		}
	}
	if _, err := NewReplica(ReplicaConfig{
		Self: 0, N: 4, App: kvstore.New(), Auth: auth.Noop{},
		ExecWorkers: -1,
	}); err == nil {
		t.Fatal("negative ExecWorkers accepted")
	}
}
