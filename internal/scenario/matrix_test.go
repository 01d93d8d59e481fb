package scenario

import (
	"testing"

	"ezbft/internal/engine"
)

// TestSmokeMatrix is the CI gate: the downsized matrix must pass
// deterministically. Failures print the replay line (cell name + seed);
// rerun with EZBFT_SCENARIO_SEED=<seed> to reproduce.
func TestSmokeMatrix(t *testing.T) {
	seed := SeedFromEnv(1)
	rep, err := RunMatrix(SmokeMatrix(), Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures() {
		t.Errorf("replay: %s (EZBFT_SCENARIO_SEED=%d)", f, seed)
	}
	if t.Failed() {
		t.Log("\n" + rep.Render())
	}
}

// TestFullMatrix runs every cell of the fault matrix — all four
// protocols × batching × checkpointing × the strategy and shape
// catalogues, plus the crash-restart cells. A known deficiency would be
// encoded as XFail on its cells (none is); a failure prints its replay
// line.
func TestFullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full 313-cell matrix (not short)")
	}
	seed := SeedFromEnv(1)
	rep, err := RunMatrix(DefaultMatrix(), Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Failures() {
		t.Errorf("replay: %s (EZBFT_SCENARIO_SEED=%d)", f, seed)
	}
	// An XPASS means a documented deficiency got fixed: promote the cell
	// by clearing its XFail instead of letting the annotation rot.
	for _, res := range rep.Results {
		if res.Pass && res.Cell.XFail != "" {
			t.Errorf("XPASS: cell %s seed %d passed despite XFail %q — remove the annotation",
				res.Cell.Name(), seed, res.Cell.XFail)
		}
	}
	if t.Failed() {
		t.Log("\n" + rep.Render())
	}
}

// TestEquivocationProducesPOM pins the "Revisiting EZBFT" attack surface:
// an owner that signs the same batch into two instances must be convicted
// — some client assembles a proof of misbehaviour from the conflicting
// signed SPECORDERs — while the run still completes and converges.
func TestEquivocationProducesPOM(t *testing.T) {
	seed := SeedFromEnv(1)
	cell := Cell{
		Protocol: engine.EZBFT,
		Strategy: StrategyByName("equivocating-owner"),
		Batching: true, Checkpointing: true,
	}
	res, err := Run(cell, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("replay: %s (EZBFT_SCENARIO_SEED=%d)", res, seed)
	}
	if res.POMs == 0 {
		t.Fatalf("equivocating owner was not convicted: 0 POMs sent (EZBFT_SCENARIO_SEED=%d)", seed)
	}
}

// TestUnansweringReplicaCostsEachClientTwoTimeouts pins what the replier
// strategies are in the matrix for: a replica that orders and votes but never
// answers a client, or answers one request in three, makes each ezBFT client
// wait out its slow-path timer twice, not once for every request it leaves
// unanswered, and the one in three it does answer never adds up to a
// probation.
func TestUnansweringReplicaCostsEachClientTwoTimeouts(t *testing.T) {
	seed := SeedFromEnv(1)
	cfg := Config{Seed: seed}.withDefaults()
	for _, name := range []string{"silent-replier", "flapping-replier"} {
		cell := Cell{Protocol: engine.EZBFT, Strategy: StrategyByName(name)}
		res, err := Run(cell, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Pass {
			t.Fatalf("replay: %s (EZBFT_SCENARIO_SEED=%d)", res, seed)
		}
		if want := uint64(2 * cfg.Clients); res.SlowTimeouts != want {
			t.Errorf("%s: %d slow timeouts over %d clients, want %d", cell.Name(), res.SlowTimeouts, cfg.Clients, want)
		}
		if res.SilentSkips == 0 {
			t.Errorf("%s: no slow-path commit was sent without waiting", cell.Name())
		}
	}
}

// TestCataloguesResolve guards the name-based lookups the CLI and CI use.
func TestCataloguesResolve(t *testing.T) {
	for _, s := range Strategies() {
		if StrategyByName(s.Name) == nil {
			t.Errorf("StrategyByName(%q) = nil", s.Name)
		}
	}
	for _, sh := range Shapes() {
		if ShapeByName(sh.Name) == nil {
			t.Errorf("ShapeByName(%q) = nil", sh.Name)
		}
	}
	if StrategyByName("no-such-strategy") != nil || ShapeByName("no-such-shape") != nil {
		t.Error("unknown names must resolve to nil")
	}
}

// TestFaultyPrimaryCellsChangeViews: in every silent-owner and
// equivocating-owner cell of a sequenced protocol the correct replicas
// depose the primary through the shared view change at least once, so the
// matrix exercises that path and not only its outcome.
func TestFaultyPrimaryCellsChangeViews(t *testing.T) {
	seed := SeedFromEnv(1)
	var cells []Cell
	for _, c := range DefaultMatrix() {
		if c.Protocol != engine.EZBFT && c.Shape == nil && c.Strategy != nil &&
			(c.Strategy.Name == "silent-owner" || c.Strategy.Name == "equivocating-owner") {
			cells = append(cells, c)
		}
	}
	if len(cells) != 24 {
		t.Fatalf("found %d cells, want 3 protocols × 2 strategies × batching × checkpointing = 24", len(cells))
	}
	rep, err := RunMatrix(cells, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if !res.Pass || res.ViewChanges == 0 {
			t.Errorf("%s: %d view changes (EZBFT_SCENARIO_SEED=%d)", res, res.ViewChanges, seed)
		}
	}
}
