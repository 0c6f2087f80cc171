package trie

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	tr := New()
	tr.Put([]byte("alpha"), []byte("1"))
	tr.Put([]byte("beta"), []byte("2"))
	tr.Put([]byte("al"), []byte("prefix"))

	for _, c := range []struct{ k, v string }{{"alpha", "1"}, {"beta", "2"}, {"al", "prefix"}} {
		v, ok := tr.Get([]byte(c.k))
		if !ok || string(v) != c.v {
			t.Fatalf("Get(%q) = %q,%v want %q", c.k, v, ok, c.v)
		}
	}
	if _, ok := tr.Get([]byte("alph")); ok {
		t.Fatal("found key that is only a path prefix")
	}
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Fatal("found missing key")
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
}

func TestOverwrite(t *testing.T) {
	tr := New()
	tr.Put([]byte("k"), []byte("v1"))
	tr.Put([]byte("k"), []byte("v2"))
	v, _ := tr.Get([]byte("k"))
	if string(v) != "v2" {
		t.Fatalf("overwrite failed: %q", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", tr.Len())
	}
}

func TestEmptyKeyAndValue(t *testing.T) {
	tr := New()
	tr.Put(nil, []byte("rootval"))
	v, ok := tr.Get(nil)
	if !ok || string(v) != "rootval" {
		t.Fatal("empty key not stored at root")
	}
	tr.Put([]byte("k"), nil)
	if _, ok := tr.Get([]byte("k")); !ok {
		t.Fatal("nil value not stored")
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	tr.Put([]byte("a"), []byte("1"))
	tr.Put([]byte("ab"), []byte("2"))
	rootWithBoth := tr.Root()

	if !tr.Delete([]byte("ab")) {
		t.Fatal("Delete returned false for present key")
	}
	if tr.Delete([]byte("ab")) {
		t.Fatal("Delete returned true for absent key")
	}
	if tr.Delete([]byte("zz")) {
		t.Fatal("Delete returned true for never-present key")
	}
	if _, ok := tr.Get([]byte("ab")); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := tr.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatal("sibling key damaged by delete")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}

	// Root after deletion must equal a fresh trie without the key.
	fresh := New()
	fresh.Put([]byte("a"), []byte("1"))
	if tr.Root() != fresh.Root() {
		t.Fatal("root after delete differs from never-inserted trie")
	}
	if tr.Root() == rootWithBoth {
		t.Fatal("root unchanged by delete")
	}
}

func TestRootInsertionOrderIndependent(t *testing.T) {
	keys := []string{"apple", "app", "banana", "band", "bandana", "", "z"}
	a, b := New(), New()
	for _, k := range keys {
		a.Put([]byte(k), []byte("v-"+k))
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b.Put([]byte(keys[i]), []byte("v-"+keys[i]))
	}
	if a.Root() != b.Root() {
		t.Fatal("root depends on insertion order")
	}
	if !a.Equal(b) {
		t.Fatal("Equal disagrees with Root")
	}
}

func TestRootChangesWithContent(t *testing.T) {
	a := New()
	a.Put([]byte("k"), []byte("v"))
	b := New()
	b.Put([]byte("k"), []byte("w"))
	if a.Root() == b.Root() {
		t.Fatal("different values, same root")
	}
	c := New()
	c.Put([]byte("j"), []byte("v"))
	if a.Root() == c.Root() {
		t.Fatal("different keys, same root")
	}
	if New().Root() == a.Root() {
		t.Fatal("empty trie root equals non-empty root")
	}
}

func TestIncrementalRootMatchesFresh(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%d", i)), []byte{byte(i)})
		_ = tr.Root() // force caching every step
	}
	fresh := New()
	for i := 0; i < 100; i++ {
		fresh.Put([]byte(fmt.Sprintf("key-%d", i)), []byte{byte(i)})
	}
	if tr.Root() != fresh.Root() {
		t.Fatal("incremental caching corrupted the root")
	}
}

// Property: Put/Get round-trips for arbitrary keys and values.
func TestPutGetRoundTripProperty(t *testing.T) {
	f := func(pairs map[string][]byte) bool {
		tr := New()
		for k, v := range pairs {
			tr.Put([]byte(k), v)
		}
		for k, v := range pairs {
			got, ok := tr.Get([]byte(k))
			if !ok || string(got) != string(v) {
				return false
			}
		}
		return tr.Len() == len(pairs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: root is a pure function of the mapping, regardless of
// insert/delete history.
func TestRootHistoryIndependenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		final := map[string][]byte{}
		tr := New()
		// Random history of puts and deletes.
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(40))
			if rng.Intn(3) == 0 {
				tr.Delete([]byte(k))
				delete(final, k)
			} else {
				v := []byte{byte(rng.Intn(256))}
				tr.Put([]byte(k), v)
				final[k] = v
			}
			if rng.Intn(10) == 0 {
				_ = tr.Root()
			}
		}
		fresh := New()
		for k, v := range final {
			fresh.Put([]byte(k), v)
		}
		return tr.Root() == fresh.Root() && tr.Len() == len(final)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFlatAccumulator(t *testing.T) {
	f := NewFlat()
	empty := f.Root()
	f.Put([]byte("a"), []byte("1"))
	if f.Root() == empty {
		t.Fatal("root unchanged by Put")
	}
	v, ok := f.Get([]byte("a"))
	if !ok || string(v) != "1" {
		t.Fatal("Get failed")
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d", f.Len())
	}
	// Order dependence is the documented behaviour.
	a, b := NewFlat(), NewFlat()
	a.Put([]byte("x"), []byte("1"))
	a.Put([]byte("y"), []byte("2"))
	b.Put([]byte("y"), []byte("2"))
	b.Put([]byte("x"), []byte("1"))
	if a.Root() == b.Root() {
		t.Fatal("flat accumulator unexpectedly order independent")
	}
}

func BenchmarkTriePut(b *testing.B) {
	tr := New()
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("account-%d", i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Put(keys[i%1000], []byte{byte(i)})
	}
}

func BenchmarkTrieRootIncremental(b *testing.B) {
	tr := New()
	for i := 0; i < 10000; i++ {
		tr.Put([]byte(fmt.Sprintf("account-%d", i)), []byte{1})
	}
	_ = tr.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put([]byte(fmt.Sprintf("account-%d", i%10000)), []byte{byte(i)})
		_ = tr.Root()
	}
}

func BenchmarkFlatPut(b *testing.B) {
	f := NewFlat()
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("account-%d", i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Put(keys[i%1000], []byte{byte(i)})
	}
}
