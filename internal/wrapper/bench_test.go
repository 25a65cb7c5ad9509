package wrapper

import (
	"testing"

	"yat/internal/engine"
	"yat/internal/relational"
	"yat/internal/tree"
	"yat/internal/workload"
	"yat/internal/yatl"
)

// The wrapper layer's share of a convert_batch conversion, over the
// same inputs (workload.ConvertBatchSources, seed 42) as the root
// BenchmarkConvertBatch.
//
//	go test -run '^$' -bench 'ImportSGML|TableTree|ExportHTML' -benchmem -cpu 1 ./internal/wrapper

// sink keeps the benchmarks' results alive.
var sink *tree.Node

// BenchmarkImportSGML parses and imports the 40 brochures.
func BenchmarkImportSGML(b *testing.B) {
	docs, _ := workload.ConvertBatchSources(42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		store, err := ImportSGML(docs, nil)
		if err != nil {
			b.Fatal(err)
		}
		sink = store.Entries()[0].Tree
	}
}

// BenchmarkTableTree converts every table of the dealer database.
func BenchmarkTableTree(b *testing.B) {
	_, db := workload.ConvertBatchSources(42)
	var tables []*relational.Table
	for _, name := range db.Names() {
		t, _ := db.Table(name)
		tables = append(tables, t)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, t := range tables {
			sink = TableTree(t)
		}
	}
}

// BenchmarkExportHTML renders the 60 pages of the convert_batch
// conversion, 113 anchors among them.
func BenchmarkExportHTML(b *testing.B) {
	pages := convertBatchPages(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ExportHTML(pages, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != 60 {
			b.Fatalf("%d pages, want 60", len(out))
		}
	}
}

// convertBatchPages runs the convert_batch pipeline up to its HTML
// export: both imports, Rules 1+2 and Rule 3 into ODMG objects, and the
// Web program into page trees.
func convertBatchPages(tb testing.TB) *tree.Store {
	tb.Helper()
	docs, db := workload.ConvertBatchSources(42)
	sources, err := ImportSGML(docs, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range ImportRelational(db).Entries() {
		sources.Put(e.Name, e.Tree)
	}
	objects := tree.NewStore()
	for _, src := range []string{yatl.SGMLToODMGSource, "program join\n" + yatl.Rule3Source} {
		res, err := engine.Run(yatl.MustParse(src), sources, nil)
		if err != nil {
			tb.Fatal(err)
		}
		for _, e := range res.Outputs.Entries() {
			objects.Put(e.Name, e.Tree)
		}
	}
	res, err := engine.Run(yatl.MustParse(yatl.WebProgramSource), objects, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return res.Outputs
}
