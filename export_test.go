package encag

// What package encag_test shares of this package's test helpers.
var (
	OpenTest = openTest
	Contract = contract
	Patterns = patterns
)
