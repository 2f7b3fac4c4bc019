package inject

// ReferenceRun exposes the test-only reference engine to the external
// test package.
var ReferenceRun = referenceRun
