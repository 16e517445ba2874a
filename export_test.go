package squid

// The fuzz target over System.ExecuteContext lives in the external test package
// (it imports internal/server, which imports this package); these hand it
// the fixture and the plan rewrites of the internal tests.
var (
	FuzzDB          = fuzzDB
	FuzzExampleSets = fuzzExampleSets
	PlanMutations   = planMutations
)
