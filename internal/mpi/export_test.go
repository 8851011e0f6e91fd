package mpi

// FlatView is the identity of the communicator's cached one-cluster view,
// nil before a flat form has compiled against it.
func (c *Comm) FlatView() *commTopo { return c.flat }

// ViewLeaders is the leader (comm rank) of every cluster in the dense view
// the communicator's next collective compiles against; asking builds the
// view as a first collective would.
func (c *Comm) ViewLeaders() []int { return append([]int(nil), c.topo().leaders...) }
