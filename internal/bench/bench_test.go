package bench

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func quickCfg(t *testing.T) Config {
	t.Helper()
	return Config{Quick: true, Seed: 7, Dir: t.TempDir()}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"e1", "e10", "e11", "e12", "e13", "e15", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
	if _, err := Run("nope", quickCfg(t)); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "EX", Title: "title", Claim: "claim", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Notef("note %d", 7)
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"EX", "title", "claim", "a", "bb", "1", "2", "note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func cell(t *testing.T, tab *Table, row int, col string) string {
	t.Helper()
	for i, c := range tab.Columns {
		if c == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("no column %q in %v", col, tab.Columns)
	return ""
}

// TestE8GroupCommitArmBatches: eight concurrent durable writers on real
// fsync must share forces — the arm reports (from wal.group_size, the
// instrument every flush records) more than one record per flush and
// fewer fsyncs than commits.
func TestE8GroupCommitArmBatches(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two Ps: on one, a fast fsync never yields the P to a second writer")
	}
	const commits = 400
	arm, err := e8GroupCommitArm(quickCfg(t), 8, commits)
	if err != nil {
		t.Fatal(err)
	}
	if arm.batchMean <= 1 {
		t.Fatalf("mean batch %.2f records, want > 1", arm.batchMean)
	}
	if arm.syncs >= commits {
		t.Fatalf("%d fsyncs for %d commits, want fewer than one per commit", arm.syncs, commits)
	}
}

func TestE5InvariantPoisonAlwaysDiverted(t *testing.T) {
	tab, err := Run("e5", quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		if cell(t, tab, i, "poison-reqs") != cell(t, tab, i, "poison-diverted") {
			t.Fatalf("row %d: poison not fully diverted: %v", i, tab.Rows[i])
		}
	}
}

func TestE7InvariantExactlyOnce(t *testing.T) {
	tab, err := Run("e7", quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		if got := cell(t, tab, i, "exec≠1"); got != "0" {
			t.Fatalf("row %d: exec≠1 = %s: %v", i, got, tab.Rows[i])
		}
		if cell(t, tab, i, "requests") != cell(t, tab, i, "replies≥1") {
			t.Fatalf("row %d: lost replies: %v", i, tab.Rows[i])
		}
	}
}

func TestE4InvariantRemediesEliminateLostUpdates(t *testing.T) {
	tab, err := Run("e4", quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		arm := tab.Rows[i][0]
		lost, _ := strconv.Atoi(cell(t, tab, i, "lost-updates"))
		switch arm {
		case "one-long-txn", "pipeline/inherit", "pipeline/applock":
			if lost != 0 {
				t.Fatalf("%s lost %d updates", arm, lost)
			}
		case "pipeline/none":
			if lost == 0 {
				t.Logf("pipeline/none showed no anomaly this run (timing-dependent)")
			}
		}
	}
}

func TestE11InvariantBalanceIntact(t *testing.T) {
	tab, err := Run("e11", quickCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		if got := cell(t, tab, i, "balance-intact"); got != "true" {
			t.Fatalf("row %d: balance not intact: %v", i, tab.Rows[i])
		}
	}
}
