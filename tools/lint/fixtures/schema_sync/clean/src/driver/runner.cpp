// schema-sync clean fixture: every emitted key is documented.
void emit(Doc &doc) {
    doc.set("cycles", 1);
}
