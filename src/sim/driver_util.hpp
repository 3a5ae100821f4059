// Forwards to sim/driver.hpp, which declares the serving driver's helpers
// (make_compute_hook, sample_query_rows, query_row_tensor); kept for code
// that includes this header.
#pragma once

#include "sim/driver.hpp"
