package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestAccuracyLedger is the accuracy ledger: the non-timing columns of
// the paper's accuracy figures at test scale, held byte for byte to
// testdata/accuracy/<figure>.golden. It turns the trend tests above into
// an exact gate: a change to the αDB, abduction or the baselines that
// moves one f-score, one predicate count or one cardinality of IMDb,
// DBLP or Adult fails here. fig15a runs TALOS over IMDb for ~17 s, so
// it is left out under -short.
//
// The columns come from the result structs, every field but a
// time.Duration, so no timing reaches a golden file. A score is written
// to six decimals: a one-entity change of any output moves it by far
// more, and the last bit a fused multiply-add can move on another
// architecture by far less. A missing golden file is written and the
// test fails: a deliberate change deletes the file, runs the test once
// and reviews the file's diff.
func TestAccuracyLedger(t *testing.T) {
	// A suite of its own, so what other tests ran first cannot matter.
	s := NewSuite(TestScale())
	ctx := context.Background()
	figures := []struct {
		id   string
		rows func() any
		slow bool
	}{
		{"fig10", func() any { return s.Fig10(ctx) }, false},
		{"fig12", func() any { return s.Fig12(ctx) }, false},
		{"fig13", func() any { return s.Fig13(ctx) }, false},
		{"fig14", func() any { return s.Fig14(ctx) }, false},
		{"fig15a", func() any { return s.Fig15a(ctx) }, true},
		{"fig15b", func() any { return s.Fig15b(ctx) }, false},
		{"fig16a", func() any { return s.Fig16a(ctx) }, false},
	}
	for _, f := range figures {
		t.Run(f.id, func(t *testing.T) {
			if f.slow && testing.Short() {
				t.Skip("TALOS over IMDb takes ~17 s")
			}
			got := ledger(f.rows())
			path := filepath.Join("testdata", "accuracy", f.id+".golden")
			want, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("wrote %s; review it and run the test again", path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got == string(want) {
				return
			}
			gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := range min(len(gotLines), len(wantLines)) {
				if gotLines[i] != wantLines[i] {
					t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gotLines[i], wantLines[i])
				}
			}
			t.Fatalf("%s: %d lines, the golden file holds %d", path, len(gotLines), len(wantLines))
		})
	}
}

// ledger renders a slice of result structs as a header of field names
// and one line a row, tab-separated: every field but a time.Duration,
// nested structs (metrics.PRF) flattened as Outer.Inner.
func ledger(rows any) string {
	v := reflect.ValueOf(rows)
	var b strings.Builder
	for i := range v.Len() {
		var names, cells []string
		ledgerCells(v.Index(i), "", &names, &cells)
		if i == 0 {
			b.WriteString(strings.Join(names, "\t") + "\n")
		}
		b.WriteString(strings.Join(cells, "\t") + "\n")
	}
	return b.String()
}

var durationType = reflect.TypeOf(time.Duration(0))

func ledgerCells(v reflect.Value, prefix string, names, cells *[]string) {
	for i := range v.NumField() {
		f, field := v.Field(i), v.Type().Field(i)
		name := prefix + field.Name
		switch {
		case f.Type() == durationType:
			continue
		case f.Kind() == reflect.Struct:
			ledgerCells(f, name+".", names, cells)
			continue
		case f.Kind() == reflect.Float64:
			*cells = append(*cells, strconv.FormatFloat(f.Float(), 'f', 6, 64))
		case f.Kind() == reflect.Int, f.Kind() == reflect.String:
			*cells = append(*cells, fmt.Sprint(f.Interface()))
		default:
			panic(fmt.Sprintf("ledger: field %s has kind %s", name, f.Kind()))
		}
		*names = append(*names, name)
	}
}
