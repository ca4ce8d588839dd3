package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-quick", "fig-nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunSingleExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	if err := run([]string{"-quick", "exp-psc"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFlagOverrides(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	if err := run([]string{"-ops", "30", "-runs", "1", "-netcost", "0s", "-storecost", "0s", "exp-trade"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunCSVOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	dir := t.TempDir()
	if err := run([]string{"-quick", "-csv", dir, "exp-trade"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "exp-trade.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "case,clean,with_threat,rejected") {
		t.Fatalf("csv = %s", data)
	}
}
