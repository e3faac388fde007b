// schema-sync fixture: this writer emits no keys.
