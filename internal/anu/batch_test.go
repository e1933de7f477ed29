package anu

import (
	"testing"

	"anurand/internal/hashx"
	"anurand/internal/rng"
)

// batchLens are the batch lengths LookupBatch is checked at: empty,
// around the four-key prehash interleave, around the usual 64, around
// one and two 256-key chunks, and a partial fourth chunk. The last is
// the longest.
var batchLens = []int{0, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65, 255, 256, 257, 511, 512, 513, 1000}

// batchProbeBudgets are the probe budgets LookupBatch is checked under:
// 1 to 6 and 8 rounds, so keys reach the rank fallback after each
// number of rounds the kernel commonly runs, and the default.
var batchProbeBudgets = []int{1, 2, 3, 4, 5, 6, 8, DefaultMaxProbes}

// unevenKeys returns n random keys of unequal lengths, "" first, up to
// 159 bytes, so the prehash interleave's common prefix ends at a
// different key in every group.
func unevenKeys(src *rng.Source, n int) []string {
	keys := make([]string, n)
	for i := 1; i < n; i++ {
		size := src.Intn(8)
		switch i % 3 {
		case 1:
			size = src.Intn(40)
		case 2:
			size = 100 + src.Intn(60)
		}
		b := make([]byte, size)
		for j := range b {
			b[j] = byte(src.Uint64())
		}
		keys[i] = string(b)
	}
	return keys
}

// checkBatchMatchesScalar asserts that LookupBatch stores, for every
// key, the owner per-key LookupDigest returns, at every batch length and
// probe budget; that it counts the resolved keys; and that it writes
// nothing past the last key.
func checkBatchMatchesScalar(t *testing.T, m *Map, keys []string) {
	t.Helper()
	const sentinel = ServerID(1 << 30)
	for _, budget := range batchProbeBudgets {
		c := m.Clone()
		c.SetMaxProbes(budget)
		for _, n := range batchLens {
			batch := keys[:n]
			owners := make([]ServerID, n+1)
			owners[n] = sentinel
			got := c.LookupBatch(batch, owners)
			want := 0
			for i, key := range batch {
				id, _ := c.LookupDigest(hashx.Prehash(key))
				if owners[i] != id {
					t.Fatalf("maxProbes=%d n=%d: key %d (%d bytes): LookupBatch owner %d, LookupDigest %d", budget, n, i, len(key), owners[i], id)
				}
				if id != NoServer {
					want++
				}
			}
			if got != want {
				t.Fatalf("maxProbes=%d n=%d: LookupBatch resolved %d, want %d", budget, n, got, want)
			}
			if owners[n] != sentinel {
				t.Fatalf("maxProbes=%d n=%d: LookupBatch wrote past the last key", budget, n)
			}
		}
	}
}

// TestLookupBatchMatchesLookupDigest holds the batch kernel to the
// scalar chain, owner for owner, on maps shaped by every kind of
// mutation: tuning rounds, failure, recovery, growth past the partition
// count, random weights and memberships, and a map with every server
// failed.
func TestLookupBatchMatchesLookupDigest(t *testing.T) {
	keys := unevenKeys(rng.New(21), batchLens[len(batchLens)-1])

	t.Run("tuned", func(t *testing.T) {
		m := newTestMap(t, 8)
		ctl := newTestController()
		for round := 0; round < 12; round++ {
			reports := make([]Report, 8)
			for i := range reports {
				reports[i] = Report{Server: ServerID(i), Requests: 100, Latency: 0.5 + float64(i%3)}
			}
			if _, err := ctl.Tune(m, reports); err != nil {
				t.Fatal(err)
			}
		}
		checkBatchMatchesScalar(t, m, keys)
	})

	t.Run("fail-recover-add", func(t *testing.T) {
		m := newTestMap(t, 3)
		if err := m.Fail(1); err != nil {
			t.Fatal(err)
		}
		checkBatchMatchesScalar(t, m, keys)
		if err := m.Recover(1); err != nil {
			t.Fatal(err)
		}
		checkBatchMatchesScalar(t, m, keys)
		parts := m.Partitions()
		for id := ServerID(3); m.Partitions() == parts; id++ {
			if err := m.AddServer(id); err != nil {
				t.Fatal(err)
			}
		}
		checkBatchMatchesScalar(t, m, keys)
	})

	t.Run("all-failed", func(t *testing.T) {
		m := newTestMap(t, 4)
		for _, id := range m.Servers() {
			if err := m.Fail(id); err != nil {
				t.Fatal(err)
			}
		}
		checkBatchMatchesScalar(t, m, keys)
		owners := make([]ServerID, 9)
		if got := m.LookupBatch(keys[:9], owners); got != 0 {
			t.Fatalf("LookupBatch resolved %d keys with every server failed", got)
		}
	})

	t.Run("random", func(t *testing.T) {
		for seed := uint64(0); seed < 20; seed++ {
			src := rng.New(seed)
			m := newTestMap(t, 1+src.Intn(12))
			for step := 0; step < 8; step++ {
				ids := m.Servers()
				var err error
				switch src.Intn(4) {
				case 0:
					weights := make(map[ServerID]float64, len(ids))
					for _, id := range ids {
						weights[id] = src.Float64()
					}
					weights[ids[0]] += 0.01
					err = m.SetWeights(weights)
				case 1:
					err = m.Fail(ids[src.Intn(len(ids))])
				case 2:
					err = m.Recover(ids[src.Intn(len(ids))])
				default:
					err = m.AddServer(ids[len(ids)-1] + 1)
				}
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			checkBatchMatchesScalar(t, m, keys)
		}
	})
}

func TestLookupBatchShortOwnersPanics(t *testing.T) {
	m := newTestMap(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("LookupBatch with short owners did not panic")
		}
	}()
	m.LookupBatch([]string{"a", "b"}, make([]ServerID, 1))
}

func TestLookupBatchZeroAllocs(t *testing.T) {
	m := newTestMap(t, 8)
	keys := unevenKeys(rng.New(3), batchLens[len(batchLens)-1])
	owners := make([]ServerID, len(keys))
	for _, n := range batchLens {
		if a := testing.AllocsPerRun(50, func() { m.LookupBatch(keys[:n], owners) }); a != 0 {
			t.Fatalf("LookupBatch of %d keys allocated %g times, want 0", n, a)
		}
	}
}
