"""LASERREPAIR: online false-sharing repair via a software store buffer."""
