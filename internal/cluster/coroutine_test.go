package cluster

import (
	"testing"

	"mpichmad/internal/mpi"
)

// The stack spawns a task per nonblocking send, rendez-vous body and relay
// hop, and the scheduler runs each on the coroutine of a task that has
// ended: on the bridged triangle, an autotuned session of collectives up to
// 64 KiB runs its thousands of tasks on at most 1 % as many coroutines, and
// says so in its metrics.
func TestTaskCoroutinesAreReused(t *testing.T) {
	topo := bridgedTriangle()
	topo.Autotune = true
	sess, err := Build(topo)
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(rank int, c *mpi.Comm) error {
		for _, n := range []int{64, 64 << 10} {
			in, out, all := make([]byte, n), make([]byte, n), make([]byte, n*c.Size())
			if err := c.Bcast(in, n, mpi.Byte, 0); err != nil {
				return err
			}
			if err := c.Allreduce(in, out, n, mpi.Byte, mpi.OpMax); err != nil {
				return err
			}
			if err := c.Allgather(in, all, n, mpi.Byte); err != nil {
				return err
			}
			if err := c.Alltoall(all, make([]byte, len(all)), n, mpi.Byte); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks, coros := sess.S.Counts()
	t.Logf("%d tasks on %d coroutines", tasks, coros)
	if tasks < 5000 || coros*100 > tasks {
		t.Errorf("%d tasks on %d coroutines, want thousands on at most 1 %% as many", tasks, coros)
	}
	if got, want := [2]int64{sess.Metrics.Get("vtime.tasks", ""), sess.Metrics.Get("vtime.coroutines", "")}, [2]int64{int64(tasks), int64(coros)}; got != want {
		t.Errorf("metrics vtime.tasks, vtime.coroutines = %v, want %v", got, want)
	}
}
