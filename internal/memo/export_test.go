package memo

// GraphFixture exports buildGraphCache's graph to the package's external
// tests.
func GraphFixture() *Graph { return buildGraphCache().ExportGraph() }
