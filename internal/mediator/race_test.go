//go:build race

package mediator

// refreshAllocBudget is TestRefreshAllocs's ceiling; -race builds
// allocate more.
const refreshAllocBudget float64 = 740
