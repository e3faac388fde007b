// schema-sync fixture: the study registry.
const Study kStudies[] = {
    {"table4", "Table 4", "t", run},
};
