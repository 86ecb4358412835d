// Counter lists as X-macros. A list is a macro taking one argument X and
// expanding to X(type, name) once per counter, so a struct's fields, its
// metric export, its all-field comparison and any mirror copy are all
// generated from one line per counter.
#pragma once

/// Declares one list entry as a zero-initialized data member:
/// `struct S { MY_LIST(DCACHE_COUNTER_FIELD) };`
#define DCACHE_COUNTER_FIELD(type, name) type name = 0;
