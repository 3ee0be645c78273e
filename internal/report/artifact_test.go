package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func sampleArtifacts(t *testing.T) []Artifact {
	t.Helper()
	tbl := NewTable("Energy table", "policy", "E/E_base")
	tbl.AddRow("MaxSleep", "1.08")
	tbl.AddRow("AlwaysActive", "1.00")
	tbl.AddNote("alpha=0.5")
	ta, err := NewArtifact("fig8a", "Figure 8a", tbl)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSeries("Breakeven", "p", "cycles", "alpha=0.5")
	s.AddPoint(0.05, 20)
	s.AddPoint(0.50, 2.5)
	sa, err := NewArtifact("fig4a", "Figure 4a", s)
	if err != nil {
		t.Fatal(err)
	}
	return []Artifact{ta, sa}
}

func TestNewArtifactKinds(t *testing.T) {
	arts := sampleArtifacts(t)
	if arts[0].Kind != KindTable || arts[0].Table == nil || arts[0].Series != nil {
		t.Errorf("table artifact malformed: %+v", arts[0])
	}
	if arts[1].Kind != KindSeries || arts[1].Series == nil || arts[1].Table != nil {
		t.Errorf("series artifact malformed: %+v", arts[1])
	}
	if arts[0].Title != "Energy table" || arts[1].Title != "Breakeven" {
		t.Errorf("titles not propagated: %q %q", arts[0].Title, arts[1].Title)
	}
	if _, err := NewArtifact("x", "y", nil); err == nil {
		t.Error("nil renderable accepted")
	}
}

func TestRenderTextBanner(t *testing.T) {
	var b bytes.Buffer
	if err := RenderText(&b, sampleArtifacts(t)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== [fig8a] Figure 8a ==", "MaxSleep", "== [fig4a] Figure 4a ==", "Breakeven"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	// Ad-hoc artifacts without an ID render without a banner.
	b.Reset()
	tbl := NewTable("t", "a")
	tbl.AddRow("1")
	if err := RenderText(&b, []Artifact{{Title: "t", Kind: KindTable, Table: tbl}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "==") {
		t.Errorf("unexpected banner:\n%s", b.String())
	}
}

func TestRenderJSONRoundTrip(t *testing.T) {
	arts := sampleArtifacts(t)
	var b bytes.Buffer
	if err := RenderJSON(&b, arts); err != nil {
		t.Fatal(err)
	}
	var back []Artifact
	if err := json.Unmarshal(b.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(arts, back) {
		t.Errorf("round trip lost data:\nhave %+v\nwant %+v", back, arts)
	}
}

func TestRenderCSV(t *testing.T) {
	var b bytes.Buffer
	if err := RenderCSV(&b, sampleArtifacts(t)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# [fig8a] Energy table",
		"policy,E/E_base",
		"MaxSleep,1.08",
		"# [fig4a] Breakeven",
		"p,alpha=0.5",
		"0.05,20",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("csv output missing %q:\n%s", want, out)
		}
	}
}

func TestRendererForNames(t *testing.T) {
	for _, f := range Formats() {
		if _, err := RendererFor(f); err != nil {
			t.Errorf("RendererFor(%q): %v", f, err)
		}
	}
	if _, err := RendererFor("yaml"); err == nil {
		t.Error("unknown format accepted")
	}
	// Empty string defaults to text.
	if _, err := RendererFor(""); err != nil {
		t.Errorf("empty format: %v", err)
	}
}

func TestRenderPayloadMissing(t *testing.T) {
	bad := []Artifact{{ID: "x", Kind: KindTable}}
	if err := RenderText(new(bytes.Buffer), bad); err == nil {
		t.Error("payload-less artifact rendered as text")
	}
	if err := RenderCSV(new(bytes.Buffer), bad); err == nil {
		t.Error("payload-less artifact rendered as csv")
	}
}

func TestRenderNDJSON(t *testing.T) {
	arts := sampleArtifacts(t)
	var buf bytes.Buffer
	if err := RenderNDJSON(&buf, arts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(arts) {
		t.Fatalf("ndjson lines = %d, want one per artifact (%d)", len(lines), len(arts))
	}
	for i, line := range lines {
		var back Artifact
		if err := json.Unmarshal([]byte(line), &back); err != nil {
			t.Fatalf("line %d does not unmarshal: %v", i, err)
		}
		if back.ID != arts[i].ID || back.Kind != arts[i].Kind {
			t.Errorf("line %d round-tripped to %+v", i, back)
		}
	}
	r, err := RendererFor("ndjson")
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := r(&again, arts); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Error("RendererFor(\"ndjson\") disagrees with RenderNDJSON")
	}
}

func TestStreamEncoderFlushes(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, 1<<16)
	enc := NewStreamEncoder(bw)
	if err := enc.Encode(map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	// Without the encoder's flush the line would still sit in the 64 KiB
	// buffer; streaming consumers would see nothing.
	if got := buf.String(); got != "{\"x\":1}\n" {
		t.Errorf("buffered writer not flushed per line: %q", got)
	}
}

func TestStreamEncoderWriteRawFlushesOnlyOnFlush(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, 1<<16)
	enc := NewStreamEncoder(bw)
	if err := enc.WriteRaw([]byte("{\"a\":1}\n{\"a\":2}\n")); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("WriteRaw flushed before Flush: %q", buf.String())
	}
	enc.Flush()
	if err := enc.Encode(map[string]int{"a": 3}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n" {
		t.Errorf("raw and encoded lines out of order: %q", got)
	}
}
