"""LASERDETECT: the HITM record processing pipeline of Section 4."""
