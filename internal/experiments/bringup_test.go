package experiments

// What a rank costs the host to bring up, and whether that depends on how
// many other ranks there are.

import (
	"runtime"
	"testing"

	"mpichmad/internal/cluster"
	"mpichmad/internal/mpi"
)

// bringUp builds the machine of nClusters 16-rank islands, runs MPI_Init,
// the given number of world barriers and MPI_Finalize, and returns what the
// whole session allocated per rank.
func bringUp(tb testing.TB, nClusters, barriers int) (bytesPerRank, mallocsPerRank float64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sess, err := cluster.Build(ScaleTopo(nClusters, 16))
	if err == nil {
		err = sess.Run(func(rank int, c *mpi.Comm) error {
			for i := 0; i < barriers; i++ {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	n := float64(nClusters * 16)
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n
}

// State that every rank holds about every other rank makes a session's
// allocation quadratic in its size. Per rank, bring-up plus four barriers on
// 1024 ranks must cost what it costs on 256 — within 15 %, which leaves room
// for the two more rounds of the leaders' binomial tree and nothing else.
func TestBringUpAllocationPerRankIsFlat(t *testing.T) {
	b256, m256 := bringUp(t, 16, 4)
	b1024, m1024 := bringUp(t, 64, 4)
	t.Logf("per rank: %.1f KB / %.0f mallocs at 256 ranks, %.1f KB / %.0f at 1024", b256/1e3, m256, b1024/1e3, m1024)
	if b1024 > 1.15*b256 || m1024 > 1.15*m256 {
		t.Errorf("a rank of 1024 costs %.2fx the bytes and %.2fx the mallocs of a rank of 256, want at most 1.15x",
			b1024/b256, m1024/m256)
	}
}

// BenchmarkBringUp1024 is Build + MPI_Init + one Barrier (+ Finalize's) on
// the 1024-rank machine: ns and B per session.
func BenchmarkBringUp1024(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bringUp(b, 64, 1)
	}
}
