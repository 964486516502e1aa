package workload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Height returns the number of levels in the tree (1 for a lone leaf).
func (t *BTree) Height() (int, error) {
	h := 1
	id := t.root
	for {
		n, err := t.readNode(id)
		if err != nil {
			return 0, err
		}
		if n.leaf {
			return h, nil
		}
		h++
		id = n.kids[0]
	}
}

// faultStore wraps a Pager and fails page faults after a countdown,
// simulating a bad sector mid-operation.
type faultStore struct {
	*Pager
	failAfter int // fail every Pin once the counter reaches zero
	reads     int
}

var errInjected = errors.New("workload: injected read fault")

func (f *faultStore) Pin(id int32) (*PinnedPage, error) {
	f.reads++
	if f.failAfter >= 0 && f.reads > f.failAfter {
		return nil, errInjected
	}
	return f.Pager.Pin(id)
}

// TestBTreeReadFaultPropagation: read faults surface as errors from every
// B+tree operation instead of being swallowed or panicking.
func TestBTreeReadFaultPropagation(t *testing.T) {
	fs := &faultStore{Pager: NewPager(64), failAfter: -1}
	tr := NewBTree(fs)
	for v := 0; v < 2000; v++ {
		if err := tr.Put(key64(uint64(v)), []byte{byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	// From now on every read fails.
	fs.failAfter = 0
	fs.reads = 1

	if _, _, err := tr.Get(key64(5)); !errors.Is(err, errInjected) {
		t.Fatalf("Get error = %v, want injected fault", err)
	}
	if err := tr.Put(key64(9999), []byte{1}); !errors.Is(err, errInjected) {
		t.Fatalf("Put error = %v, want injected fault", err)
	}
	if err := tr.Scan(nil, nil, func(_, _ []byte) bool { return true }); !errors.Is(err, errInjected) {
		t.Fatalf("Scan error = %v, want injected fault", err)
	}
	if _, err := tr.Height(); !errors.Is(err, errInjected) {
		t.Fatalf("Height error = %v, want injected fault", err)
	}

	// Intermittent fault: the tree stays usable once reads recover.
	fs.failAfter = -1
	if _, ok, err := tr.Get(key64(5)); err != nil || !ok {
		t.Fatalf("recovered Get: ok=%v err=%v", ok, err)
	}
}

// TestBTreeRejectsOversizedEntries: keys and values beyond the page budget
// are refused up front.
func TestBTreeRejectsOversizedEntries(t *testing.T) {
	tr := NewBTree(NewPager(8))
	if err := tr.Put(make([]byte, PageSize), []byte("v")); err == nil {
		t.Fatalf("oversized key accepted")
	}
	if err := tr.Put([]byte("k"), make([]byte, PageSize)); err == nil {
		t.Fatalf("oversized value accepted")
	}
	if tr.Len() != 0 {
		t.Fatalf("rejected entries counted")
	}
}

func key64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func TestBTreeInsertGetScan(t *testing.T) {
	p := NewPager(64)
	tr := NewBTree(p)
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, v := range perm {
		if err := tr.Put(key64(uint64(v)), []byte(fmt.Sprintf("val%d", v))); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	h, err := tr.Height()
	if err != nil {
		t.Fatal(err)
	}
	if h < 2 {
		t.Fatalf("tree of %d keys should have split (height %d)", n, h)
	}
	for _, v := range []int{0, 1, 42, n / 2, n - 1} {
		got, ok, err := tr.Get(key64(uint64(v)))
		if err != nil || !ok {
			t.Fatalf("Get(%d): ok=%v err=%v", v, ok, err)
		}
		if string(got) != fmt.Sprintf("val%d", v) {
			t.Fatalf("Get(%d) = %q", v, got)
		}
	}
	if _, ok, _ := tr.Get(key64(n + 10)); ok {
		t.Fatalf("Get of missing key succeeded")
	}
	// Range scan returns exactly [100, 200] in order.
	var seen []uint64
	err = tr.Scan(key64(100), key64(200), func(k, v []byte) bool {
		seen = append(seen, binary.BigEndian.Uint64(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 101 || seen[0] != 100 || seen[100] != 200 {
		t.Fatalf("scan returned %d keys [%d..%d]", len(seen), seen[0], seen[len(seen)-1])
	}
	if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] }) {
		t.Fatalf("scan out of order")
	}
	// Replacement does not grow the tree.
	if err := tr.Put(key64(42), []byte("replaced")); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("Len after replace = %d", tr.Len())
	}
	got, _, _ := tr.Get(key64(42))
	if string(got) != "replaced" {
		t.Fatalf("replace failed: %q", got)
	}
}

// TestQuickBTreeMatchesMap: the tree agrees with a reference map under a
// random sequence of inserts, replacements and lookups.
func TestQuickBTreeMatchesMap(t *testing.T) {
	f := func(seed int64, opsRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := 200 + int(opsRaw)%800
		p := NewPager(16)
		tr := NewBTree(p)
		ref := map[uint64]string{}
		for i := 0; i < ops; i++ {
			k := uint64(rng.Intn(300))
			switch rng.Intn(3) {
			case 0, 1:
				v := fmt.Sprintf("v%d-%d", k, i)
				if err := tr.Put(key64(k), []byte(v)); err != nil {
					return false
				}
				ref[k] = v
			case 2:
				_, ok, err := tr.Get(key64(k))
				if _, inRef := ref[k]; err != nil || ok != inRef {
					return false
				}
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok, err := tr.Get(key64(k))
			if err != nil || !ok || string(got) != v {
				return false
			}
		}
		// Full scan matches sorted reference keys.
		var keys []uint64
		if err := tr.Scan(nil, nil, func(k, _ []byte) bool {
			keys = append(keys, binary.BigEndian.Uint64(k))
			return true
		}); err != nil {
			return false
		}
		if len(keys) != len(ref) {
			return false
		}
		return sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	cases := []Record{
		{Name: "title", Kind: 1, Value: ""},
		{Name: "", Kind: 2, Value: "some text with ümläuts"},
		{Name: "id", Kind: 5, Value: "x42"},
	}
	for _, r := range cases {
		got, err := decodeRecord(encodeRecord(r))
		if err != nil {
			t.Fatalf("decode(%+v): %v", r, err)
		}
		if got != r {
			t.Fatalf("round trip %+v -> %+v", r, got)
		}
	}
	if _, err := decodeRecord([]byte{1, 2}); err == nil {
		t.Fatalf("short record must fail")
	}
}
