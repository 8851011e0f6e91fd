package mpi

// FlatView is the identity of the communicator's cached one-cluster view,
// nil before a flat form has compiled against it.
func (c *Comm) FlatView() *commTopo { return c.flat }

// ViewLeaders is the leader (comm rank) of every cluster in the dense view
// the communicator's next collective compiles against; asking builds the
// view as a first collective would.
func (c *Comm) ViewLeaders() []int { return append([]int(nil), c.topo().leaders...) }

// View is the communicator's dense view as a collective would see it: the
// group's part, which ranks may share, and this rank's remote clusters.
func (c *Comm) View() (clusterOf []int, clusters [][]int, remote []int) {
	ct := c.topo()
	return ct.clusterOf, ct.clusters, ct.remote
}

// Done reports whether the collective has completed, without the progress
// call Test makes.
func (r *CollRequest) Done() bool { return r.done.Fired() }

// Step is one transfer of a hand-written schedule: a receive from Peer into
// Buf, or a send of Buf to Peer, plain or on the round's second lane.
type Step struct {
	Recv, Aside bool
	Peer        int
	Buf         []byte
}

// StartRounds submits the schedule that has the given rounds, after leasing
// staged blocks of staging, as an Icoll would one it had compiled: the
// executor's own test bench.
func (c *Comm) StartRounds(name string, staged int, rounds [][]Step) *CollRequest {
	b := newSched(name, &c.p.Eng.Bufs)
	for i := 0; i < staged; i++ {
		b.stage(1 << 10)
	}
	for _, rd := range rounds {
		for _, st := range rd {
			switch {
			case st.Recv:
				b.recv(st.Peer, st.Buf)
			case st.Aside:
				b.sendAside(st.Peer, st.Buf)
			default:
				b.send(st.Peer, st.Buf)
			}
		}
		b.endRound()
	}
	return c.submit(b.build(nil))
}
