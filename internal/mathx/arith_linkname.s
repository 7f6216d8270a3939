// Empty on purpose: with an assembly file in the package the compiler accepts
// the bodyless declarations of arith_linkname.go.
