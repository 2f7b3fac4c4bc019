package inject

// ReferenceRun exposes the test-only reference engine to the external
// test package.
var ReferenceRun = referenceRun

// SameTrace exposes the field-by-field clean-trace comparison, which
// the store's encoding no longer covers.
var SameTrace = sameTrace
