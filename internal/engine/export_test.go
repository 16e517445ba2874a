package engine

// ReferenceWithin hands the nested-loop reference to the external test
// package, whose fuzz target has to import packages that import this one.
var ReferenceWithin = referenceWithin
