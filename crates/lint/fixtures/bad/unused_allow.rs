// Marker-hygiene fixture: an allow with nothing to suppress is a stale
// lie about the code, and an allow without a reason explains nothing.
// Both are errors in their own right.

pub fn safe_len(buf: &[u8]) -> usize {
    // vc-lint: allow(R7, this line touches no atomic) //~ marker @6
    buf.len()
}

pub fn also_fine(buf: &[u8]) -> bool {
    // vc-lint: allow(R7) //~ marker @11
    buf.is_empty()
}
