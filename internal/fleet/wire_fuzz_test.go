package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"github.com/archsim/fusleep"
)

// reencode marshals v, decodes the bytes into a fresh T, and marshals that
// again, failing unless the two encodings match: whatever the coordinator
// accepts off the wire must survive its own re-encoding unchanged.
func reencode[T any](t *testing.T, v *T) {
	t.Helper()
	first, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal decoded %T: %v", v, err)
	}
	var back T
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatalf("decode re-encoded %T %s: %v", v, first, err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatalf("marshal round-tripped %T: %v", v, err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("%T re-encoding unstable:\n  %s\n  %s", v, first, second)
	}
}

// checkWireError rebuilds the transported error and converts it back:
// typed cell errors must survive the round trip field for field, untyped
// ones keep their message.
func checkWireError(t *testing.T, we *WireError) {
	t.Helper()
	if we == nil {
		return
	}
	err := we.Err()
	if err == nil {
		t.Fatal("WireError rebuilt as a nil error")
	}
	var ce *fusleep.CellError
	if errors.As(err, &ce) != we.Cell {
		t.Fatalf("WireError{Cell: %v} rebuilt as %T", we.Cell, err)
	}
	want := *we
	if !we.Cell {
		want = WireError{Message: we.Message}
	}
	if got := ToWireError(err); *got != want {
		t.Fatalf("WireError round trip:\n  sent %+v\n  got  %+v", want, *got)
	}
}

// FuzzWireRequests feeds arbitrary bytes to the decoders the coordinator
// runs on worker traffic — FetchRequest, ReportRequest with its
// CellReports, and a bare WireError — and requires every accepted document
// to re-encode stably and every carried error to rebuild faithfully. None
// of it may panic.
func FuzzWireRequests(f *testing.F) {
	for _, seed := range []string{
		`{"v":1,"id":"w-000001","max":1,"waitMillis":5000}`,
		`{"v":1,"id":"w-000002","max":-3}`,
		`{"v":1,"id":"w-000001","results":[{"lease":7,"key":"8bd704477ce98c15","result":{"index":0,"cell":{"policy":{"policy":"MaxSleep"},"tech":{"p":0.05,"c":0.001,"sleepOverhead":0.01,"duty":0.5},"fus":1,"benchmarks":["gcc"],"alpha":0.5,"l2Latency":12,"window":20000},"relEnergy":0.5,"leakageFraction":0.25,"meanCycles":1234.5},"trace":[{"stage":"evaluated","attempt":1,"seconds":0.01}]}]}`,
		`{"v":1,"id":"w-000001","results":[{"lease":8,"key":"e68f","error":{"message":"boom","key":"e68f","attempt":3,"transient":true,"cell":true}}]}`,
		`{"v":1,"id":"w-000001","results":[{"lease":9,"key":"k","error":{"message":"plain"}}]}`,
		`{"message":"deadline","timeout":true,"panicked":true,"cell":true}`,
		`{"message":"untyped","attempt":2}`,
		`{"v":1,"results":null}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var fetch FetchRequest
		if json.Unmarshal(data, &fetch) == nil {
			reencode(t, &fetch)
		}
		var report ReportRequest
		if json.Unmarshal(data, &report) == nil {
			reencode(t, &report)
			for i := range report.Results {
				reencode(t, &report.Results[i])
				checkWireError(t, report.Results[i].Error)
			}
		}
		var we WireError
		if json.Unmarshal(data, &we) == nil {
			reencode(t, &we)
			checkWireError(t, &we)
		}
	})
}
