package netsim

// SeqTablesAllocated reports whether the engine has created its
// sequence filter tables.
func SeqTablesAllocated(s *Sim) bool { return s.seqs != nil }
