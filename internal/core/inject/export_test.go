package inject

// ReferenceRun exposes the test-only reference engine to the external
// test package.
var ReferenceRun = referenceRun

// SameTrace exposes the field-by-field clean-trace comparison, which
// the store's encoding no longer covers.
var SameTrace = sameTrace

// ReferenceFingerprint and ReferenceSourceFingerprint expose the
// io.Writer hasher the production fingerprints must match byte for byte.
var (
	ReferenceFingerprint       = referenceFingerprint
	ReferenceSourceFingerprint = referenceSourceFingerprint
)
