// schema-sync bad fixture: the second key is not documented.
void emit(Doc &doc) {
    doc.set("cycles", 1);
    doc.set("undocumented_key", 2);
}
