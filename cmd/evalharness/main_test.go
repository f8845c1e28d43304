package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunEnvFreeExperiments(t *testing.T) {
	// table1/table2/table4 need no trained environment and run fast.
	for _, exp := range []string{"table1", "table2", "table4"} {
		var out strings.Builder
		if err := run([]string{"-experiment", exp}, &out); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if out.Len() == 0 {
			t.Fatalf("%s produced no output", exp)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// The four benchmark modes bench/ superseded are as unknown as a typo.
	for _, exp := range []string{"table99", "lifecycle", "fastpath", "abuse", "fleet"} {
		var out strings.Builder
		err := run([]string{"-experiment", exp}, &out)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("%s: want unknown-experiment error, got %v", exp, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: rejected only after setting up:\n%s", exp, out.String())
		}
	}
}

func TestExperimentFlagHelp(t *testing.T) {
	// flag prints usage to os.Stderr as it is at call time.
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	err = run([]string{"-h"}, io.Discard)
	os.Stderr = saved
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: want flag.ErrHelp, got %v", err)
	}
	help, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(help), "table5") {
		t.Fatalf("help does not list the experiments:\n%s", help)
	}
	for _, gone := range []string{"lifecycle", "fastpath", "abuse", "fleet"} {
		if strings.Contains(string(help), gone) {
			t.Errorf("help still names %q:\n%s", gone, help)
		}
	}
}

func TestRunWithEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	var out strings.Builder
	args := []string{
		"-experiment", "table5",
		"-train-attacks", "600", "-train-benign", "1500", "-benign-tests", "2000",
	}
	if err := run(args, &out); err != nil {
		t.Fatalf("table5: %v\n%s", err, out.String())
	}
	for _, want := range []string{"pSigene", "ModSecurity", "Bro", "TPR"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("table5 output missing %q:\n%s", want, out.String())
		}
	}
}
