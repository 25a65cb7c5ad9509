package wrapper

import (
	"testing"

	"yat/internal/relational"
	"yat/internal/tree"
	"yat/internal/workload"
)

// The wrapper layer's share of a convert_batch conversion, over the
// same inputs (workload.ConvertBatchSources, seed 42) as the root
// BenchmarkConvertBatch.
//
//	go test -run '^$' -bench 'ImportSGML|TableTree' -benchmem -cpu 1 ./internal/wrapper

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
