/**
 * @file
 * WeightSnapshot implementation: the lock-free projection-table
 * cache.
 */

#include "nn/snapshot.hh"

#include "nn/matvec_inl.hh"

namespace difftune::nn
{

WeightSnapshot::WeightSnapshot(const ParamSet &params,
                               std::shared_ptr<const void> owner)
    : params_(params), owner_(std::move(owner))
{
}

WeightSnapshot::~WeightSnapshot()
{
    for (ProjNode *node = proj_.load(); node != nullptr;) {
        ProjNode *next = node->next;
        delete node;
        node = next;
    }
}

void
WeightSnapshot::setInputColumns(std::vector<Tensor> columns)
{
    // Columns are a pure function of the frozen checkpoint, so a
    // second engine binding the same snapshot computes identical
    // ones — the first caller wins, and call_once gives every later
    // caller a happens-before edge to the winner's write.
    std::call_once(columnsOnce_, [this, &columns] {
        inputColumns_ = std::move(columns);
        columnsSet_.store(true, std::memory_order_release);
    });
}

const double *
WeightSnapshot::projTable(int wx, int table, int rows,
                          int in_dim) const
{
    for (ProjNode *node = proj_.load(std::memory_order_acquire);
         node != nullptr; node = node->next)
        if (node->wx == wx && node->table == table)
            return node->data.data();

    // Miss: compute the projection, then publish with a CAS push.
    // Concurrent computations of the same pair produce identical
    // bytes (pure function of the frozen weights); the loser of the
    // race re-scans, finds the winner's entry and discards its own,
    // so the list never holds duplicates.
    const double *wxv = params_[wx].data.data();
    const double *tab = params_[table].data.data();
    const int table_rows = params_[table].rows;
    auto node = std::make_unique<ProjNode>();
    node->wx = wx;
    node->table = table;
    node->data.resize(size_t(table_rows) * rows);
    for (int row = 0; row < table_rows; ++row)
        matvecForward(wxv, tab + size_t(row) * in_dim,
                      node->data.data() + size_t(row) * rows, rows,
                      in_dim);

    ProjNode *expected = proj_.load(std::memory_order_acquire);
    while (true) {
        for (ProjNode *seen = expected; seen != nullptr;
             seen = seen->next)
            if (seen->wx == wx && seen->table == table)
                return seen->data.data(); // lost the race; use theirs
        node->next = expected;
        if (proj_.compare_exchange_weak(expected, node.get(),
                                        std::memory_order_release,
                                        std::memory_order_acquire))
            return node.release()->data.data();
    }
}

size_t
WeightSnapshot::f64Bytes() const
{
    return params_.scalarCount() * sizeof(double);
}

size_t
WeightSnapshot::projBytes() const
{
    size_t bytes = 0;
    for (const ProjNode *node = proj_.load(std::memory_order_acquire);
         node != nullptr; node = node->next)
        bytes += node->data.size() * sizeof(double);
    return bytes;
}

size_t
WeightSnapshot::inputColumnBytes() const
{
    size_t bytes = 0;
    for (const Tensor &column : inputColumns_)
        bytes += column.size() * sizeof(double);
    return bytes;
}

} // namespace difftune::nn
