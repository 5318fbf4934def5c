package catalog

import (
	"fmt"
	"testing"

	"insightnotes/internal/summary"
	"insightnotes/internal/types"
)

func newCatalog() *Catalog {
	return New()
}

func birdSchema() types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "wingspan", Kind: types.KindFloat},
	)
}

func clusterInst(t *testing.T, name string) *summary.Instance {
	t.Helper()
	in, err := summary.NewClusterInstance(name, summary.DefaultSimThreshold)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCreateTableValidation(t *testing.T) {
	c := newCatalog()
	if _, err := c.CreateTable("", birdSchema()); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := c.CreateTable("t", types.Schema{}); err == nil {
		t.Error("empty schema accepted")
	}
	dupCols := types.NewSchema(
		types.Column{Name: "a", Kind: types.KindInt},
		types.Column{Name: "A", Kind: types.KindInt},
	)
	if _, err := c.CreateTable("t", dupCols); err == nil {
		t.Error("duplicate columns accepted")
	}
	wide := types.Schema{}
	for i := 0; i < 65; i++ {
		wide.Columns = append(wide.Columns, types.Column{Name: fmt.Sprintf("c%d", i), Kind: types.KindInt})
	}
	if _, err := c.CreateTable("t", wide); err == nil {
		t.Error("65-column table accepted")
	}
	if _, err := c.CreateTable("birds", birdSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("BIRDS", birdSchema()); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
}

func TestTableLookupAndDrop(t *testing.T) {
	c := newCatalog()
	c.CreateTable("birds", birdSchema())
	if _, err := c.Table("Birds"); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := c.Table("missing"); err == nil {
		t.Error("missing table resolved")
	}
	if got := c.TableNames(); len(got) != 1 || got[0] != "birds" {
		t.Errorf("TableNames = %v", got)
	}
	if err := c.DropTable("birds"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("birds"); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestTableInsertGetValidate(t *testing.T) {
	c := newCatalog()
	tbl, _ := c.CreateTable("birds", birdSchema())
	row, err := tbl.Insert(types.Tuple{types.NewInt(1), types.NewString("Swan Goose"), types.NewFloat(1.8)})
	if err != nil {
		t.Fatal(err)
	}
	tu, err := tbl.Get(row)
	if err != nil || tu[1].Str() != "Swan Goose" {
		t.Fatalf("Get = %v, %v", tu, err)
	}
	// INT into FLOAT column widens.
	if _, err := tbl.Insert(types.Tuple{types.NewInt(2), types.NewString("Mute Swan"), types.NewInt(2)}); err != nil {
		t.Errorf("INT into FLOAT rejected: %v", err)
	}
	// NULL anywhere is fine.
	if _, err := tbl.Insert(types.Tuple{types.NewInt(3), types.Null(), types.Null()}); err != nil {
		t.Errorf("NULLs rejected: %v", err)
	}
	// Arity and kind mismatches fail.
	if _, err := tbl.Insert(types.Tuple{types.NewInt(4)}); err == nil {
		t.Error("short tuple accepted")
	}
	if _, err := tbl.Insert(types.Tuple{types.NewString("x"), types.NewString("y"), types.NewFloat(1)}); err == nil {
		t.Error("kind mismatch accepted")
	}
	if tbl.Len() != 3 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestTableUpdateDelete(t *testing.T) {
	c := newCatalog()
	tbl, _ := c.CreateTable("birds", birdSchema())
	row, _ := tbl.Insert(types.Tuple{types.NewInt(1), types.NewString("a"), types.NewFloat(1)})
	if err := tbl.Update(row, types.Tuple{types.NewInt(1), types.NewString("b"), types.NewFloat(2)}); err != nil {
		t.Fatal(err)
	}
	tu, _ := tbl.Get(row)
	if tu[1].Str() != "b" {
		t.Errorf("after update: %v", tu)
	}
	if err := tbl.Delete(row); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Get(row); err == nil {
		t.Error("Get after delete succeeded")
	}
	if err := tbl.Update(row, tu); err == nil {
		t.Error("Update of deleted row succeeded")
	}
	if err := tbl.Delete(row); err == nil {
		t.Error("double Delete succeeded")
	}
}

func TestTableScanOrderAndStop(t *testing.T) {
	c := newCatalog()
	tbl, _ := c.CreateTable("birds", birdSchema())
	for i := 0; i < 50; i++ {
		tbl.Insert(types.Tuple{types.NewInt(int64(i)), types.NewString("x"), types.NewFloat(0)})
	}
	n := 0
	tbl.Scan(func(row types.RowID, tu types.Tuple) bool {
		n++
		return true
	})
	if n != 50 {
		t.Errorf("scan count = %d", n)
	}
	n = 0
	tbl.Scan(func(types.RowID, types.Tuple) bool { n++; return n < 10 })
	if n != 10 {
		t.Errorf("early stop = %d", n)
	}
}

// TestTableRowsAscendAndStayImmutable drives the row store through
// deletes past its compaction point and restores below the highest id:
// scans stay in ascending row-id order and agree with Get, and a tuple
// once handed out never changes under later DML or caller edits.
func TestTableRowsAscendAndStayImmutable(t *testing.T) {
	tbl, _ := newCatalog().CreateTable("birds", birdSchema())
	tuple := func(i int) types.Tuple {
		return types.Tuple{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("b%d", i)), types.NewFloat(0)}
	}
	for i := 1; i <= 40; i++ {
		tbl.Insert(tuple(i))
	}
	held, _ := tbl.Get(7)
	mine := tuple(99)
	if err := tbl.Update(7, mine); err != nil {
		t.Fatal(err)
	}
	mine[1] = types.NewString("edited by the caller")
	if held[0].Int() != 7 {
		t.Errorf("a held tuple changed under Update: %v", held)
	}
	if got, _ := tbl.Get(7); got[1].Str() != "b99" {
		t.Errorf("row 7 = %v: the store kept the caller's tuple", got)
	}
	want := map[types.RowID]int64{7: 99}
	for row := types.RowID(1); row <= 40; row++ {
		if row%4 != 0 && row != 7 {
			if err := tbl.Delete(row); err != nil {
				t.Fatal(err)
			}
		} else if row != 7 {
			want[row] = int64(row)
		}
	}
	// Restores below the highest id, one of them a deleted id.
	for _, row := range []types.RowID{3, 33} {
		if err := tbl.InsertWithID(row, tuple(int(row))); err != nil {
			t.Fatal(err)
		}
		want[row] = int64(row)
	}
	if err := tbl.InsertWithID(8, tuple(8)); err == nil {
		t.Error("InsertWithID over a live row accepted")
	}
	var prev types.RowID
	n := 0
	tbl.Scan(func(row types.RowID, tu types.Tuple) bool {
		if row <= prev {
			t.Errorf("scan visited row %d after %d", row, prev)
		}
		prev = row
		if got, _ := tbl.Get(row); tu[0].Int() != want[row] || got[0].Int() != want[row] {
			t.Errorf("row %d: scan %v, get %v, want id %d", row, tu, got, want[row])
		}
		n++
		return true
	})
	if n != len(want) || tbl.Len() != len(want) {
		t.Errorf("scan saw %d rows, Len %d, want %d", n, tbl.Len(), len(want))
	}
	if next := tbl.NextRow(); next != 41 {
		t.Errorf("NextRow = %d, want 41", next)
	}
}

func TestTableIndexLifecycle(t *testing.T) {
	c := newCatalog()
	tbl, _ := c.CreateTable("birds", birdSchema())
	for i := 0; i < 20; i++ {
		tbl.Insert(types.Tuple{types.NewInt(int64(i % 5)), types.NewString(fmt.Sprintf("b%d", i)), types.NewFloat(0)})
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("id"); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := tbl.CreateIndex("nope"); err == nil {
		t.Error("index on missing column accepted")
	}
	rows, err := tbl.LookupByIndex("id", types.NewInt(3))
	if err != nil || len(rows) != 4 {
		t.Fatalf("LookupByIndex = %v, %v", rows, err)
	}
	// Index maintained across insert/update/delete.
	row, _ := tbl.Insert(types.Tuple{types.NewInt(3), types.NewString("new"), types.NewFloat(0)})
	if rows, _ = tbl.LookupByIndex("id", types.NewInt(3)); len(rows) != 5 {
		t.Errorf("after insert: %d rows", len(rows))
	}
	tbl.Update(row, types.Tuple{types.NewInt(4), types.NewString("new"), types.NewFloat(0)})
	if rows, _ = tbl.LookupByIndex("id", types.NewInt(3)); len(rows) != 4 {
		t.Errorf("after update: %d rows", len(rows))
	}
	tbl.Delete(row)
	if rows, _ = tbl.LookupByIndex("id", types.NewInt(4)); len(rows) != 4 {
		t.Errorf("after delete: %d rows", len(rows))
	}
	if _, err := tbl.LookupByIndex("name", types.NewString("x")); err == nil {
		t.Error("lookup on unindexed column succeeded")
	}
	if got := tbl.IndexedColumns(); len(got) != 1 || got[0] != "id" {
		t.Errorf("IndexedColumns = %v", got)
	}
}

func TestInstanceRegistryAndLinks(t *testing.T) {
	c := newCatalog()
	c.CreateTable("birds", birdSchema())
	c.CreateTable("observations", birdSchema())
	in := clusterInst(t, "SimCluster")
	if err := c.RegisterInstance(in); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterInstance(in); err == nil {
		t.Error("duplicate instance accepted")
	}
	if _, err := c.Instance("SimCluster"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Instance("nope"); err == nil {
		t.Error("missing instance resolved")
	}
	// Many-to-many links.
	if err := c.Link("SimCluster", "birds"); err != nil {
		t.Fatal(err)
	}
	if err := c.Link("SimCluster", "observations"); err != nil {
		t.Fatal(err)
	}
	if err := c.Link("SimCluster", "birds"); err == nil {
		t.Error("duplicate link accepted")
	}
	if err := c.Link("nope", "birds"); err == nil {
		t.Error("link of missing instance accepted")
	}
	if err := c.Link("SimCluster", "nope"); err == nil {
		t.Error("link to missing table accepted")
	}
	if !c.IsLinked("SimCluster", "birds") {
		t.Error("IsLinked = false")
	}
	if got := c.TablesFor("SimCluster"); len(got) != 2 {
		t.Errorf("TablesFor = %v", got)
	}
	if got := c.InstancesFor("birds"); len(got) != 1 || got[0].Name != "SimCluster" {
		t.Errorf("InstancesFor = %v", got)
	}
	if err := c.Unlink("SimCluster", "birds"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("SimCluster", "birds"); err == nil {
		t.Error("double unlink succeeded")
	}
	if c.IsLinked("SimCluster", "birds") {
		t.Error("still linked after Unlink")
	}
}

func TestDropInstanceRemovesLinks(t *testing.T) {
	c := newCatalog()
	c.CreateTable("birds", birdSchema())
	c.RegisterInstance(clusterInst(t, "A"))
	c.Link("A", "birds")
	if err := c.DropInstance("A"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropInstance("A"); err == nil {
		t.Error("double drop succeeded")
	}
	if c.IsLinked("A", "birds") {
		t.Error("link survived instance drop")
	}
	if got := c.InstanceNames(); len(got) != 0 {
		t.Errorf("InstanceNames = %v", got)
	}
}

func TestInstancesForSortedDeterministic(t *testing.T) {
	c := newCatalog()
	c.CreateTable("birds", birdSchema())
	for _, n := range []string{"zeta", "alpha", "mid"} {
		c.RegisterInstance(clusterInst(t, n))
		c.Link(n, "birds")
	}
	got := c.InstancesFor("birds")
	if len(got) != 3 || got[0].Name != "alpha" || got[2].Name != "zeta" {
		names := []string{}
		for _, in := range got {
			names = append(names, in.Name)
		}
		t.Errorf("InstancesFor order = %v", names)
	}
}

func TestTableLookupByIndexRange(t *testing.T) {
	c := newCatalog()
	tbl, _ := c.CreateTable("birds", birdSchema())
	for i := 0; i < 20; i++ {
		tbl.Insert(types.Tuple{types.NewInt(int64(i)), types.NewString("b"), types.NewFloat(0)})
	}
	if _, err := tbl.LookupByIndexRange("id", nil, nil, false, false); err == nil {
		t.Error("range lookup without index succeeded")
	}
	if err := tbl.CreateIndex("id"); err != nil {
		t.Fatal(err)
	}
	v := func(n int64) *types.Value { x := types.NewInt(n); return &x }
	cases := []struct {
		lo, hi       *types.Value
		loInc, hiInc bool
		want         int
	}{
		{v(5), v(10), true, true, 6},   // [5, 10]
		{v(5), v(10), false, false, 4}, // (5, 10)
		{v(5), v(10), true, false, 5},  // [5, 10)
		{v(5), v(10), false, true, 5},  // (5, 10]
		{nil, v(3), false, true, 4},    // <= 3
		{v(17), nil, false, false, 2},  // > 17
		{nil, nil, false, false, 20},   // full
		{v(30), nil, true, false, 0},   // empty
	}
	for i, cse := range cases {
		rows, err := tbl.LookupByIndexRange("id", cse.lo, cse.hi, cse.loInc, cse.hiInc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(rows) != cse.want {
			t.Errorf("case %d: %d rows, want %d", i, len(rows), cse.want)
		}
		// Results come back in value order.
		for j := 1; j < len(rows); j++ {
			a, _ := tbl.Get(rows[j-1])
			b, _ := tbl.Get(rows[j])
			if types.Compare(a[0], b[0]) > 0 {
				t.Errorf("case %d: out of order", i)
			}
		}
	}
}
