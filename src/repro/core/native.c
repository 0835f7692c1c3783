/*
 * Native kernels for the two shared hot spots of the SpArch simulator.
 *
 * Compiled and loaded by repro/core/native.py; the Python and numpy code
 * they replace stays the reference, and every output here is identical to
 * it bit for bit:
 *
 *   repro_prefetch_simulate  the general loop of RowPrefetcher.simulate
 *                            (lookahead-limited Belady replacement)
 *   repro_fold_i32/_i64      fastpath.fold_sorted_runs: duplicate-key fold
 *                            with np.add.reduceat's association, exact-zero
 *                            drop (streams without NaN values)
 *
 * Every function is reentrant: all scratch memory is allocated per call.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_OK 0
#define REPRO_NO_MEMORY 1
#define REPRO_NO_VICTIM 2

/* ------------------------------------------------------------------ */
/* Row prefetcher                                                      */
/* ------------------------------------------------------------------ */

/* A victim candidate.  The candidate to spill first is the one whose next
 * use is furthest away; among equal next uses, the older stamp.  Stamps
 * are unique, so this is a strict total order and any heap pops the same
 * candidate as the reference's packed-integer heapq. */
typedef struct {
    int64_t use;
    int64_t stamp;
    int64_t row;
} Candidate;

typedef struct {
    Candidate *items;
    int64_t size, capacity;
} CandidateHeap;

/* Candidates whose next use lies outside the look-ahead window.  They are
 * spilled oldest first and always before any known candidate, so they form
 * an exact FIFO. */
typedef struct {
    Candidate *items;
    int64_t head, size, capacity;
} CandidateFifo;

static int spill_first(const Candidate *a, const Candidate *b)
{
    return a->use > b->use || (a->use == b->use && a->stamp < b->stamp);
}

static int heap_push(CandidateHeap *heap, Candidate item)
{
    if (heap->size == heap->capacity) {
        int64_t capacity = heap->capacity ? 2 * heap->capacity : 256;
        Candidate *items = realloc(heap->items, capacity * sizeof *items);
        if (!items)
            return REPRO_NO_MEMORY;
        heap->items = items;
        heap->capacity = capacity;
    }
    int64_t i = heap->size++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!spill_first(&item, &heap->items[parent]))
            break;
        heap->items[i] = heap->items[parent];
        i = parent;
    }
    heap->items[i] = item;
    return REPRO_OK;
}

static void heap_pop(CandidateHeap *heap)
{
    Candidate last = heap->items[--heap->size];
    int64_t i = 0, n = heap->size;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && spill_first(&heap->items[child + 1],
                                         &heap->items[child]))
            child++;
        if (!spill_first(&heap->items[child], &last))
            break;
        heap->items[i] = heap->items[child];
        i = child;
    }
    if (n)
        heap->items[i] = last;
}

static int fifo_push(CandidateFifo *fifo, Candidate item)
{
    if (fifo->head + fifo->size == fifo->capacity) {
        if (fifo->head > fifo->size) {
            memmove(fifo->items, fifo->items + fifo->head,
                    fifo->size * sizeof *fifo->items);
            fifo->head = 0;
        } else {
            int64_t capacity = fifo->capacity ? 2 * fifo->capacity : 256;
            Candidate *items = realloc(fifo->items,
                                       capacity * sizeof *items);
            if (!items)
                return REPRO_NO_MEMORY;
            fifo->items = items;
            fifo->capacity = capacity;
        }
    }
    fifo->items[fifo->head + fifo->size++] = item;
    return REPRO_OK;
}

static void fifo_pop(CandidateFifo *fifo)
{
    fifo->head++;
    if (--fifo->size == 0)
        fifo->head = 0;
}

typedef struct {
    const int64_t *seg_offset;   /* row -> first bit of its segment bitmap */
    int64_t window;
    /* Positions of each row's accesses, ascending (a counting sort of the
     * access sequence), and per row the index in `positions` of its first
     * access after the current time: the next-occurrence table, advanced
     * as time advances instead of searched. */
    const int64_t *positions;
    const int64_t *row_end;
    int64_t *next_index;
    /* Residency. */
    uint8_t *resident;           /* one byte per (row, segment) */
    int64_t *resident_count;     /* resident segments per row */
    int64_t *top_segment;        /* highest resident segment, or -1 */
    /* Victim candidates. */
    int64_t *latest_stamp;       /* per row; -1 before its first push */
    int64_t next_stamp;
    CandidateHeap heap;
    CandidateFifo fifo;
} Prefetcher;

/* Next access of `row` strictly after `now`, or -1 when there is none
 * within the look-ahead window. */
static int64_t next_use(const Prefetcher *p, int64_t row, int64_t now)
{
    int64_t index = p->next_index[row];
    if (index == p->row_end[row])
        return -1;
    int64_t position = p->positions[index];
    return position - now > p->window ? -1 : position;
}

static int push_use(Prefetcher *p, int64_t row, int64_t use)
{
    Candidate item = {use, p->next_stamp++, row};
    p->latest_stamp[row] = item.stamp;
    return use < 0 ? fifo_push(&p->fifo, item) : heap_push(&p->heap, item);
}

static int push_candidate(Prefetcher *p, int64_t row, int64_t now)
{
    return push_use(p, row, next_use(p, row, now));
}

static int is_live(const Prefetcher *p, const Candidate *item)
{
    return p->latest_stamp[item->row] == item->stamp
        && p->resident_count[item->row] > 0;
}

/* The row to spill one line of.  Candidates of `exclude_row` (the row being
 * fetched) are dropped and counted in *deferred, to be pushed again after
 * the fetch.  Returns -1 when nothing is resident at all. */
static int64_t pop_victim(Prefetcher *p, int64_t exclude_row,
                          int64_t *deferred)
{
    CandidateFifo *fifo = &p->fifo;
    while (fifo->size) {
        const Candidate *item = &fifo->items[fifo->head];
        if (!is_live(p, item)) {
            fifo_pop(fifo);
        } else if (item->row == exclude_row) {
            fifo_pop(fifo);
            ++*deferred;
        } else {
            return item->row;
        }
    }
    CandidateHeap *heap = &p->heap;
    while (heap->size) {
        const Candidate *item = &heap->items[0];
        if (!is_live(p, item)) {
            heap_pop(heap);
        } else if (item->row == exclude_row) {
            heap_pop(heap);
            ++*deferred;
        } else {
            return item->row;
        }
    }
    /* Degenerate case: the row being fetched is longer than the whole
     * buffer, so its own earlier segments are the only candidates. */
    return p->resident_count[exclude_row] > 0 ? exclude_row : -1;
}

static void evict_top_segment(Prefetcher *p, int64_t row)
{
    uint8_t *bits = p->resident + p->seg_offset[row];
    int64_t segment = p->top_segment[row];
    bits[segment] = 0;
    do {
        segment--;
    } while (segment >= 0 && !bits[segment]);
    p->top_segment[row] = segment;
    p->resident_count[row]--;
}

/*
 * Runs the access sequence through the row buffer, exactly as the general
 * loop of RowPrefetcher.simulate does.
 *
 * access[n]            row of B read by each access, all in [0, num_rows)
 * num_segments, row_nnz, last_elements [num_rows]
 *                      lines per row, elements per row, elements in a
 *                      row's last line
 * seg_offset[num_rows + 1]
 *                      exclusive prefix sum of num_segments
 * resident[seg_offset[num_rows]]
 *                      in/out: 1 where a (row, segment) line is buffered
 * miss_bytes[n]        out: DRAM bytes each access read
 * counters[8]          out: element hits, element misses, segment hits,
 *                      segment misses, evicted lines, DRAM bytes read,
 *                      bytes without buffer, inserted lines
 *
 * Returns REPRO_OK, REPRO_NO_MEMORY or REPRO_NO_VICTIM.
 */
int repro_prefetch_simulate(
    const int64_t *access, int64_t n,
    const int64_t *num_segments, const int64_t *row_nnz,
    const int64_t *last_elements, const int64_t *seg_offset,
    int64_t num_rows, int64_t line_elements, int64_t element_bytes,
    int64_t window, int64_t lines_free,
    uint8_t *resident, int64_t *miss_bytes, int64_t *counters)
{
    int status = REPRO_NO_MEMORY;
    int64_t max_segments = 0;
    for (int64_t row = 0; row < num_rows; row++)
        if (num_segments[row] > max_segments)
            max_segments = num_segments[row];

    Prefetcher p;
    memset(&p, 0, sizeof p);
    p.seg_offset = seg_offset;
    p.window = window;
    p.resident = resident;
    int64_t *row_end = calloc(num_rows + 1, sizeof *row_end);
    int64_t *positions = malloc((n ? n : 1) * sizeof *positions);
    int64_t *missing = malloc((max_segments ? max_segments : 1)
                              * sizeof *missing);
    p.next_index = malloc((num_rows ? num_rows : 1) * sizeof *p.next_index);
    p.resident_count = calloc(num_rows ? num_rows : 1,
                              sizeof *p.resident_count);
    p.top_segment = malloc((num_rows ? num_rows : 1) * sizeof *p.top_segment);
    p.latest_stamp = malloc((num_rows ? num_rows : 1)
                            * sizeof *p.latest_stamp);
    if (!row_end || !positions || !missing || !p.next_index
        || !p.resident_count || !p.top_segment || !p.latest_stamp)
        goto done;

    /* Counting sort of the positions by row: stable, so each row's
     * positions come out ascending. */
    for (int64_t i = 0; i < n; i++)
        row_end[access[i] + 1]++;
    for (int64_t row = 0; row < num_rows; row++)
        row_end[row + 1] += row_end[row];
    memcpy(p.next_index, row_end, num_rows * sizeof *row_end);
    for (int64_t i = 0; i < n; i++)
        positions[p.next_index[access[i]]++] = i;
    memcpy(p.next_index, row_end, num_rows * sizeof *row_end);
    p.positions = positions;
    p.row_end = row_end + 1;

    for (int64_t row = 0; row < num_rows; row++) {
        const uint8_t *bits = resident + seg_offset[row];
        p.latest_stamp[row] = -1;
        p.top_segment[row] = -1;
        for (int64_t s = 0; s < num_segments[row]; s++)
            if (bits[s]) {
                p.resident_count[row]++;
                p.top_segment[row] = s;
            }
    }
    /* Warm start: rows left resident by an earlier run are candidates too,
     * pushed in ascending row order. */
    for (int64_t row = 0; row < num_rows; row++)
        if (p.resident_count[row] && push_candidate(&p, row, -1))
            goto done;

    int64_t element_hits = 0, element_misses = 0;
    int64_t segment_hits = 0, segment_misses = 0;
    int64_t evicted_lines = 0, dram_bytes_read = 0;
    int64_t bytes_without_buffer = 0, inserted_lines = 0;

    for (int64_t now = 0; now < n; now++) {
        int64_t row = access[now];
        int64_t segments = num_segments[row];
        int64_t row_elements = row_nnz[row];
        p.next_index[row]++;
        bytes_without_buffer += row_elements * element_bytes;
        if (segments == 0) {
            miss_bytes[now] = 0;
            continue;
        }

        uint8_t *bits = resident + seg_offset[row];
        int64_t num_resident = p.resident_count[row];
        int64_t hit_elements = row_elements, num_missing = 0;
        if (num_resident != segments) {
            for (int64_t s = 0; s < segments; s++)
                if (!bits[s])
                    missing[num_missing++] = s;
            hit_elements = line_elements * num_resident;
            if (bits[segments - 1])
                hit_elements -= line_elements - last_elements[row];

            int64_t deferred = 0;
            for (int64_t m = 0; m < num_missing; m++) {
                /* Make room line by line, spilling the furthest-next-use
                 * row's highest resident segment first. */
                while (lines_free == 0) {
                    int64_t victim = pop_victim(&p, row, &deferred);
                    if (victim < 0) {
                        status = REPRO_NO_VICTIM;
                        goto done;
                    }
                    evict_top_segment(&p, victim);
                    if (p.resident_count[victim]
                        && push_candidate(&p, victim, now))
                        goto done;
                    lines_free++;
                    evicted_lines++;
                }
                int64_t segment = missing[m];
                bits[segment] = 1;
                p.resident_count[row]++;
                if (segment > p.top_segment[row])
                    p.top_segment[row] = segment;
                lines_free--;
                inserted_lines++;
            }
            for (; deferred; deferred--)
                if (push_candidate(&p, row, now))
                    goto done;
        }

        int64_t row_miss_bytes = (row_elements - hit_elements) * element_bytes;
        element_hits += hit_elements;
        element_misses += row_elements - hit_elements;
        segment_hits += segments - num_missing;
        segment_misses += num_missing;
        dram_bytes_read += row_miss_bytes;
        miss_bytes[now] = row_miss_bytes;
        /* The row was just touched: refresh its eviction priority. */
        if (push_candidate(&p, row, now))
            goto done;
    }

    counters[0] = element_hits;
    counters[1] = element_misses;
    counters[2] = segment_hits;
    counters[3] = segment_misses;
    counters[4] = evicted_lines;
    counters[5] = dram_bytes_read;
    counters[6] = bytes_without_buffer;
    counters[7] = inserted_lines;
    status = REPRO_OK;

done:
    free(row_end);
    free(positions);
    free(missing);
    free(p.next_index);
    free(p.resident_count);
    free(p.top_segment);
    free(p.latest_stamp);
    free(p.heap.items);
    free(p.fifo.items);
    return status;
}

/* ------------------------------------------------------------------ */
/* Duplicate fold                                                      */
/* ------------------------------------------------------------------ */

/* numpy's pairwise_sum for float64 (PW_BLOCKSIZE 128), which the add
 * ufunc's reduce loop uses; the association must match it exactly. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;   /* keeps a sum of -0.0 values -0.0 */
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int k = 0; k < 8; k++)
            r[k] = a[k];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int k = 0; k < 8; k++)
                r[k] += a[i + k];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                   + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* Whether any value is a NaN.  A sum of NaN inputs takes the payload and
 * sign of one of them, and which one depends on the operand order the
 * compiler chose for each addition -- here and in numpy alike -- so such
 * streams are left to numpy.  NaNs produced by the sum itself (inf - inf)
 * all carry the hardware's default NaN, whatever the operand order. */
static int has_nan(const double *values, int64_t n)
{
    int found = 0;
    for (int64_t i = 0; i < n; i++)
        found |= values[i] != values[i];
    return found;
}

/*
 * Folds each run of equal keys of a sorted stream into one element and
 * drops exact zeros.  np.add.reduceat sums a run v0..vk as
 * v0 + pairwise_sum(v1..vk), and so does this.  The outputs may alias the
 * inputs (an in-place fold): a run is read whole before its one output
 * element is written, at an index no greater than the run's start.
 *
 * Returns the number of elements kept, and *num_runs the run count; or -1,
 * with nothing written, when a value is NaN.
 */
#define DEFINE_FOLD(NAME, KEY)                                              \
int64_t NAME(const KEY *keys, const double *values, int64_t n,             \
             KEY *out_keys, double *out_values, int64_t *num_runs)         \
{                                                                           \
    int64_t kept = 0, runs = 0, start = 0;                                  \
    if (has_nan(values, n))                                                 \
        return -1;                                                          \
    while (start < n) {                                                     \
        KEY key = keys[start];                                              \
        int64_t end = start + 1;                                            \
        while (end < n && keys[end] == key)                                 \
            end++;                                                          \
        double sum = values[start];                                         \
        if (end - start > 1)                                                \
            sum += pairwise_sum(values + start + 1, end - start - 1);       \
        if (sum != 0.0) {                                                   \
            out_keys[kept] = key;                                           \
            out_values[kept] = sum;                                         \
            kept++;                                                         \
        }                                                                   \
        runs++;                                                             \
        start = end;                                                        \
    }                                                                       \
    *num_runs = runs;                                                       \
    return kept;                                                            \
}

DEFINE_FOLD(repro_fold_i32, int32_t)
DEFINE_FOLD(repro_fold_i64, int64_t)
