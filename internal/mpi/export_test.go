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
