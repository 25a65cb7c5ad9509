package wrapper

import (
	"yat/internal/pattern"
	"yat/internal/relational"
	"yat/internal/tree"
)

// TableTree converts a relational table into a YAT tree of the shape
// the paper's Rule 3 matches:
//
//	suppliers -*> row < -> sid -> 1, -> name -> "VW center", ... >
func TableTree(t *relational.Table) *tree.Node {
	rows, cols := t.Rows(), t.Schema.Columns
	// One block holds every node and one every child list: per row, the
	// row, its columns and their atoms; each label is boxed once.
	var b tree.Blocks
	b.Reserve(1+len(rows)*(1+2*len(cols)), len(rows)*(1+2*len(cols)))
	labels := make([]tree.Value, len(cols))
	for i, col := range cols {
		labels[i] = tree.Symbol(col.Name)
	}
	row := tree.Value(tree.Symbol("row"))
	kids := b.List(len(rows))
	for _, r := range rows {
		cells := b.List(len(cols))
		for i, col := range cols {
			atom := b.Node(relValue(r[i], col.Type), nil)
			cells = append(cells, b.Node(labels[i], append(b.List(1), atom)))
		}
		kids = append(kids, b.Node(row, cells))
	}
	return b.Node(tree.Symbol(t.Schema.Name), kids)
}

func relValue(v relational.Value, t relational.ColType) tree.Value {
	if v.Null {
		return tree.Symbol("null")
	}
	switch t {
	case relational.TInt:
		return tree.Int(v.I)
	case relational.TString:
		return tree.String(v.S)
	case relational.TFloat:
		return tree.Float(v.F)
	case relational.TBool:
		return tree.Bool(v.B)
	}
	return tree.Symbol("null")
}

// ImportRelational exposes a whole database as a store: one entry per
// table, named "R" + table name (the paper's Rsuppliers, Rcars).
func ImportRelational(db *relational.Database) *tree.Store {
	names := db.Names()
	store := tree.NewStore()
	store.Grow(len(names))
	for _, name := range names {
		t, _ := db.Table(name)
		store.Put(tree.PlainName("R"+name), TableTree(t))
	}
	return store
}

// SchemaPattern derives the YAT pattern of one relation:
//
//	Psuppliers = suppliers -*> row < -> sid -> Sid : int, ... >
func SchemaPattern(s *relational.Schema) *pattern.Pattern {
	row := pattern.NewSym("row")
	for _, col := range s.Columns {
		row.Edges = append(row.Edges, pattern.One(
			pattern.NewSym(col.Name, pattern.One(
				pattern.NewVar(varNameFor(col.Name), colDomain(col.Type))))))
	}
	return pattern.NewPattern("P"+s.Name, pattern.NewSym(s.Name, pattern.Star(row)))
}

func colDomain(t relational.ColType) pattern.Domain {
	switch t {
	case relational.TInt:
		return pattern.KindDomain(tree.KindInt)
	case relational.TString:
		return pattern.KindDomain(tree.KindString)
	case relational.TFloat:
		return pattern.KindDomain(tree.KindFloat)
	case relational.TBool:
		return pattern.KindDomain(tree.KindBool)
	}
	return pattern.AnyDomain
}

// RelationalModel derives the model of a whole database.
func RelationalModel(db *relational.Database) *pattern.Model {
	m := pattern.NewModel()
	for _, name := range db.Names() {
		t, _ := db.Table(name)
		m.Add(SchemaPattern(t.Schema))
	}
	return m
}
