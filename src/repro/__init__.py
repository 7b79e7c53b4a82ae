"""repro — storage of multidimensional arrays based on arbitrary tiling.

A full reproduction of Furtado & Baumann (ICDE 1999): the RasDaMan-style
storage manager for multidimensional discrete data (MDD), including

* the MDD model (typed cells, open definition domains, current domains,
  partial coverage),
* arbitrary tiling with four tunable strategies (aligned, directional,
  areas-of-interest, statistic),
* a page-based BLOB store with a deterministic disk timing model,
* an R+-tree-like spatial index on tiles,
* a query engine with the paper's ``t_ix`` / ``t_o`` / ``t_cpu`` timing
  breakdown and a mini-RasQL front end.

Quickstart::

    import numpy as np
    from repro import Database, mdd_type, DirectionalTiling, MInterval

    db = Database()
    cube_type = mdd_type("SalesCube", "ulong", "[1:730,1:60,1:100]")
    cube = db.create_object("cubes", cube_type, "sales")
    cube.load_array(
        np.random.randint(0, 50, (730, 60, 100), dtype=np.uint32),
        DirectionalTiling({1: (1, 27, 42, 60)}, max_tile_size=64 * 1024),
        origin=(1, 1, 1),
    )
    data, timing = cube.read(MInterval.parse("[32:59,*:*,28:35]"))
    print(timing.t_totalcpu, "ms")
"""

from repro.core import (
    BaseType,
    MDDType,
    MInterval,
    OPEN,
    ReproError,
    Tile,
    base_type,
    mdd_type,
)
from repro.index import IndexEntry, RPlusTreeIndex
from repro.query import (
    AccessKind,
    AccessPattern,
    QueryEngine,
    QueryResult,
    QueryTiming,
    classify,
    execute,
    speedup,
)
from repro.stats import AccessLog, advise
from repro.storage import (
    Database,
    DiskParameters,
    FileBlobStore,
    MemoryBlobStore,
    StoredMDD,
    open_database,
    save_database,
)
from repro.tiling import (
    AlignedTiling,
    AreasOfInterestTiling,
    CutsTiling,
    DirectionalTiling,
    RegularTiling,
    SingleTileTiling,
    StatisticTiling,
    TileConfig,
    TilingSpec,
    TilingStrategy,
)

__version__ = "1.0.0"

__all__ = [
    "AccessKind",
    "AccessLog",
    "AccessPattern",
    "AlignedTiling",
    "AreasOfInterestTiling",
    "BaseType",
    "CutsTiling",
    "Database",
    "DirectionalTiling",
    "DiskParameters",
    "FileBlobStore",
    "IndexEntry",
    "MDDType",
    "MInterval",
    "MemoryBlobStore",
    "OPEN",
    "QueryEngine",
    "QueryResult",
    "QueryTiming",
    "RPlusTreeIndex",
    "RegularTiling",
    "ReproError",
    "SingleTileTiling",
    "StatisticTiling",
    "StoredMDD",
    "Tile",
    "TileConfig",
    "TilingSpec",
    "TilingStrategy",
    "advise",
    "base_type",
    "classify",
    "execute",
    "mdd_type",
    "open_database",
    "save_database",
    "speedup",
]
