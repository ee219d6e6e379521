package report

import (
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22")
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("rule: %q", lines[1])
	}
	if !strings.Contains(lines[2], "alpha") || !strings.Contains(lines[3], "22") {
		t.Fatalf("rows:\n%s", out)
	}
}

func TestAddRowShapes(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("only")            // short row padded
	tb.AddRow("x", "y", "extra") // long row truncated
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "extra") {
		t.Fatal("extra cell should be dropped")
	}
}

func TestAddRowf(t *testing.T) {
	tb := NewTable("m", "pct")
	tb.AddRowf("%d\t%s", 4, Pct(12.5))
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "12.50%") {
		t.Fatalf("output: %s", sb.String())
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("name", "note")
	tb.AddRow("a", `has "quotes", and comma`)
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"has ""quotes"", and comma"`) {
		t.Fatalf("csv escaping wrong: %s", out)
	}
	if !strings.HasPrefix(out, "name,note\n") {
		t.Fatalf("csv header wrong: %s", out)
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456) != "1.235" {
		t.Fatalf("F = %s", F(1.23456))
	}
	if Pct(50) != "50.00%" {
		t.Fatalf("Pct = %s", Pct(50))
	}
}
