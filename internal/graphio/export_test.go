package graphio

// Test helpers exported to the package's external tests, which may import
// the packages that import graphio.
var (
	LegacyPerm = legacyPerm
	PutFile    = putFile
	ReadFile   = readFile
)
