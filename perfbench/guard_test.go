package main

import (
	"context"
	"testing"
)

// TestGuardMatchesRecordedCycles checks that the simulator still runs the
// cycles recorded in paperMachineCycles, and that the guard's IPC error is
// a plain percentage.
func TestGuardMatchesRecordedCycles(t *testing.T) {
	ipcErr, err := guard(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ipcErr <= 0 || ipcErr >= 100 {
		t.Errorf("guard IPC error = %v%%, want within (0, 100)", ipcErr)
	}
}
