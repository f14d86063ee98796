package main

// goldens pins every workload's per-cell digests for the default seed: the
// cells' sharded fingerprint and unsharded makespan, the metrics of each
// Fig. 8 then Fig. 9 row, and the fingerprint of each full-grid cell. A
// run whose digest differs counts that cell as failed. Change a digest
// only for a change that is meant to alter simulated results; a mismatch
// prints the new value.
var goldens = map[string][]string{
	"cell_rrm_quick": {
		"8a7070787bfffbe0",
	},
	"cell_qsort_quick": {
		"5ce3214d731e4415",
	},
	"grid_fig89_quick": {
		"05de5f2e92cf5570", "f38550f094bc08db", "e140c66418b8c735", "40fc90a06f7f819b",
		"d941c121cdd06360", "83a1e7ea4d083b07", "91a0cc495b300677", "b3d975da5f6eef93",
		"9095f7dcab0d62a8", "17c199b5a5e88175", "e848d955cd5231b4", "0a58103d299050cf",
		"5292fb8c6028b98b", "130b1411f410be72", "32faaae8857d5ab1", "de43a69f4df6608e",
		"dc131dbcd81846c6", "5b221069017341cf", "5dfe16d2a5684f30", "fd1d4257ce57d6dd",
		"a292128eb59c8e0d", "f92e37dc19433ca7", "9da0286960763219", "a9c3924234336566",
		"5490d305d156a66b", "4244d93186cd2841", "404b585f20c57ad4", "14c7339567dd9095",
		"9bc208c2849988ab", "98a255a304a464b5", "8dbf6e2fcbd01fbf", "38855abb9d163199",
		"5c134b938bd5a894", "6bcd8a72de2fcdce", "77d449e627295254", "81950984e648db94",
		"0c41e3e74be87714", "3debe9ed82770efc", "718aa8d8da879f6f", "4249953a7008608c",
	},
	"fullgrid_quick": {
		"5f591848e4bf3e3a", "dcc5d887d28a6c80", "91376e6c8cd9a2c8", "b4b51a5907452c16",
		"8ccdbb7e60314190", "6719e361b3634d9b", "db976c3c1d1fe982", "578f5aea16f82c93",
	},
}
