package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the tables command itself:
// with TABLES_RUN_MAIN=1 set, the process is main, not the test runner.
func TestMain(m *testing.M) {
	if os.Getenv("TABLES_RUN_MAIN") == "1" {
		main()
	}
	os.Exit(m.Run())
}

func TestSelection(t *testing.T) {
	all, err := selection("")
	if err != nil || len(all) != 0 {
		t.Fatalf(`selection("") = %v, %v; want the empty set (run everything)`, all, err)
	}
	two, err := selection("table6, fig4")
	if err != nil {
		t.Fatalf("selection of two known ids: %v", err)
	}
	if len(two) != 2 || !two["table6"] || !two["fig4"] {
		t.Errorf("selection = %v, want table6 and fig4", two)
	}

	valid := ids()
	every, err := selection(strings.Join(valid, ","))
	if err != nil {
		t.Fatalf("selection of every registered id: %v", err)
	}
	if len(valid) != 19 || len(every) != len(valid) {
		t.Errorf("%d registered ids select %d experiments; want 19 distinct ids", len(valid), len(every))
	}

	for _, only := range []string{"tabel6", "table1,tabel6", "table1,"} {
		if _, err := selection(only); err == nil {
			t.Errorf("selection(%q) accepted an unknown id", only)
		} else if !strings.Contains(err.Error(), "valid ids: "+strings.Join(valid, " ")) {
			t.Errorf("selection(%q) error %q does not list the valid ids", only, err)
		}
	}
}

// TestUnknownOnlyExitsBeforeRunning runs the command with one valid and
// one misspelt id: it must exit 2 without running the valid one.
func TestUnknownOnlyExitsBeforeRunning(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-only", "table1,tabel6")
	cmd.Env = append(os.Environ(), "TABLES_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; stderr:\n%s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("an experiment ran before the id check:\n%s", stdout.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, `"tabel6"`) || !strings.Contains(msg, "valid ids: table1 ") {
		t.Errorf("stderr = %q, want the unknown id and the valid ids", msg)
	}
}
