// The benchmark is a module of its own so that the repository's tier-1
// commands (go build ./... && go test ./...) never see it; the import
// path stays under mpichmad/, which is what lets it use internal/.
module mpichmad/bench

go 1.24

require mpichmad v0.0.0

replace mpichmad => ../
