package main

// workloads maps each workload name to its seeded input. README.md says
// why each was chosen.
var workloads = map[string]func(seed uint64) *gridWorkload{
	"table2": func(seed uint64) *gridWorkload { return &gridWorkload{grid: table2Grid(seed)} },
	"fleet":  func(seed uint64) *gridWorkload { return &gridWorkload{grid: fleetGrid(seed), fleet: true} },
}
