# Sourced, not run: the CSV generator the checkpoint-comparing scripts
# share (check_batch_invariance.sh, check_same_answers.sh).
#
#   gen D Q ROWS    a header line and ROWS rows of D symbols below Q on
#                   stdout; fixed seed, so every caller sees the same file
#   gen_distinct D Q ROWS   the same shape, rows counting up in base Q
#                   (column 0 the least significant digit): no row repeats
#                   while ROWS <= Q^D — what a de-duplicating sweep gains
#                   nothing on
#
# Skewed rows (a quarter are copies of 16 base rows), so batches hold
# repeated patterns even for the widest net members.
gen() { # d q rows
    awk -v d="$1" -v q="$2" -v n="$3" 'BEGIN {
        srand(20260928)
        for (c = 0; c < d; c++) printf "%sc%d", (c ? "," : ""), c
        printf "\n"
        for (r = 0; r < n; r++) {
            base = (rand() < 0.25) ? int(rand() * 16) + 1 : 0
            for (c = 0; c < d; c++) {
                s = base ? (base * 7 + c * 3) % q : int(rand() * q)
                printf "%s%d", (c ? "," : ""), s
            }
            printf "\n"
        }
    }'
}
gen_distinct() { # d q rows
    awk -v d="$1" -v q="$2" -v n="$3" 'BEGIN {
        for (c = 0; c < d; c++) printf "%sc%d", (c ? "," : ""), c
        printf "\n"
        for (r = 0; r < n; r++) {
            v = r
            for (c = 0; c < d; c++) {
                printf "%s%d", (c ? "," : ""), v % q
                v = int(v / q)
            }
            printf "\n"
        }
    }'
}
