# Prints a Rust source as `file:line:text` without its
# `#[cfg(test)] mod … { … }` blocks (rustfmt puts a block's closing brace
# at its opening indentation).  Usage:
#   awk -v file="$path" -f scripts/non_test_lines.awk "$path"
pending {
    pending = 0
    if ($0 ~ /^ *(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{$/) {
        match($0, /^ */)
        closing = "^" substr($0, 1, RLENGTH) "}$"
        skipping = 1
        next
    }
    print file ":" FNR - 1 ":" held
}
skipping { if ($0 ~ closing) skipping = 0; next }
/^ *#\[cfg\(test\)\]$/ { pending = 1; held = $0; next }
{ print file ":" FNR ":" $0 }
