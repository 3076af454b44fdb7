package estimate

// CheckLambdaAgainstEntrywise exposes checkLambdaAgainstEntrywise to the
// package's external tests.
var CheckLambdaAgainstEntrywise = checkLambdaAgainstEntrywise
