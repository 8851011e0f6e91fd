package mpi

// FlatView is the identity of the communicator's cached one-cluster view,
// nil before a flat form has compiled against it.
func (c *Comm) FlatView() *commTopo { return c.flat }
