package cluster

// SetKeyBudget sets the per-key seal budget for a test and returns the
// function that restores it.
func SetKeyBudget(n uint64) (restore func()) {
	old := keyBudget
	keyBudget = n
	return func() { keyBudget = old }
}
