package core

// DevPingPong is devPingPong for the external tests of table2_test.go,
// which read their figures from internal/experiments, a package that
// imports this one.
var DevPingPong = devPingPong
