package cluster

import "vxml/internal/catalog"

// CatalogStats exposes the catalog counters of the node's engine to the
// external tests, which check that no node ever serves from an artifact.
func (n *Node) CatalogStats() catalog.Stats { return n.engine.Catalog.Stats() }
